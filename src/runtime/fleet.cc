#include "runtime/fleet.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <span>
#include <thread>
#include <utility>

#include "obs/journal.h"
#include "obs/tracing.h"
#include "pisa/extract.h"
#include "runtime/plan_install.h"
#include "util/cpu.h"
#include "util/log.h"

namespace sonata::runtime {

using query::Tuple;

Fleet::Fleet(planner::Plan plan, std::size_t switch_count, std::size_t worker_threads,
             std::size_t batch_size, fault::FaultSpec faults, bool pin_workers)
    : plan_(std::move(plan)),
      sp_(std::make_unique<StreamProcessor>(plan_)),
      batch_size_(std::max<std::size_t>(batch_size, 1)),
      pin_workers_(pin_workers) {
  assert(switch_count >= 1);
  // A stall without a watchdog would spin the window barrier forever
  // (parse_fault_spec rejects this; assert for programmatic specs).
  assert(faults.stall_windows == 0 || faults.watchdog_ms > 0);
  raw_mirror_ = sp_->wants_raw_mirror();
  if (faults.any()) injector_ = std::make_unique<fault::Injector>(faults);
  if (injector_ && faults.wire_active()) wire_ = std::make_unique<WireChannel>(*injector_);
  quarantined_.assign(switch_count, 0);
  dropped_seen_.assign(switch_count, 0);

  auto& reg = obs::Registry::global();
  wakeups_ctr_ = &reg.counter("sonata_fleet_wakeups_total");
  backoffs_ctr_ = &reg.counter("sonata_fleet_backoffs_total");
  sleeps_ctr_ = &reg.counter("sonata_fleet_sleeps_total");
  partial_windows_ctr_ = &reg.counter("sonata_fleet_partial_windows_total");

  // One identical switch program per ingress point.
  obs::Span compile_span("pipeline.compile", "runtime");
  for (std::size_t i = 0; i < switch_count; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    shard->sw = std::make_unique<pisa::Switch>(plan_.switch_config);
    shard->sw->set_obs_label(std::to_string(i));
    {
      const std::pair<std::string_view, std::string> labels[] = {{"sw", std::to_string(i)}};
      shard->packets_ctr = &reg.counter(obs::labeled("sonata_fleet_packets_total", labels));
      shard->stalls_ctr = &reg.counter(obs::labeled("sonata_fleet_stalls_total", labels));
      static constexpr std::uint64_t kRingBounds[] = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
      shard->ring_depth =
          &reg.histogram(obs::labeled("sonata_fleet_ring_depth", labels), kRingBounds);
    }
    // Register pressure (fault injection): install with registers sized
    // for traffic that has since drifted (shrunken n) and/or an
    // adversarial hash seed, forcing collision-overflow storms.
    PipelineBuildOptions build_opts;
    build_opts.register_shrink = faults.register_shrink;
    build_opts.hash_seed = faults.hash_seed;
    PipelineBuild build = build_pipelines(plan_, {}, build_opts);
    const std::string err = shard->sw->install(std::move(build.pipelines), build.resources);
    assert(err.empty() && "plan does not fit the switch it was planned for");
    (void)err;
    shards_.push_back(std::move(shard));
  }
  compile_span.stop();

  // Pin shard i to worker i % threads; each shard has exactly one consumer.
  const std::size_t threads = std::min(worker_threads, switch_count);
  for (std::size_t w = 0; w < threads; ++w) {
    auto worker = std::make_unique<Worker>();
    for (std::size_t i = w; i < shards_.size(); i += threads) {
      worker->shards.push_back(shards_[i].get());
    }
    workers_.push_back(std::move(worker));
  }
  deliver_at_flush_ = switch_count == 1 && threads == 0;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    workers_[w]->thread = std::thread([this, worker = workers_[w].get(), w] {
      if (pin_workers_) {
        const int core = util::pin_thread_to_core(w);
        if (core >= 0) {
          pinned_workers_.fetch_add(1, std::memory_order_relaxed);
          SONATA_DEBUG("fleet", "worker %zu pinned to core %d (numa node %d)", w, core,
                       util::numa_node_of_core(core));
        } else {
          SONATA_DEBUG("fleet", "worker %zu pin failed", w);
        }
      }
      worker_loop(*worker);
    });
  }
}

Fleet::~Fleet() {
  stop_.store(true, std::memory_order_release);
  for (auto& w : workers_) wake(*w);
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void Fleet::process_batch_on_shard(Shard& shard, std::span<const net::Packet> packets) {
  // Parse into the shard's tuple slots — warm slots keep their value
  // storage, so a steady-state batch materializes without touching the
  // allocator — and run the pipelines in cache-sized chunks. Each phase
  // timer spans a kTimedRun-packet stretch, not a single 16-tuple chunk:
  // per-chunk clock reads would dominate the obs overhead budget.
  constexpr std::size_t kTimedRun = 256;
  while (!packets.empty()) {
    const std::size_t run = std::min(packets.size(), kTimedRun);
    if (shard.tuple_scratch.size() < run) shard.tuple_scratch.resize(run);
    {
      // Batched PHV extraction: AVX2 gathers pull the numeric columns of 4
      // packets per pass (scalar under SONATA_NO_AVX2 / old CPUs, bit-
      // identical either way).
      obs::PhaseTimer t{shard.phases, obs::Phase::kIngest};
      pisa::extract_batch(packets.first(run), shard.tuple_scratch.data());
    }
    {
      // One clock read per timed run stamps every record the run emits
      // (arena residency until the window merge is the dominant latency
      // component; the stamp is metadata only and never affects results).
      const std::uint64_t ingest_ns = obs::enabled() ? obs::now_ns() : 0;
      obs::PhaseTimer t{shard.phases, obs::Phase::kCompute};
      for (std::size_t off = 0; off < run; off += kProcessChunk) {
        process_tuples_on_shard(
            shard, {shard.tuple_scratch.data() + off, std::min(kProcessChunk, run - off)},
            ingest_ns);
      }
    }
    packets = packets.subspan(run);
  }
}

void Fleet::process_tuples_on_shard(Shard& shard, std::span<Tuple> tuples,
                                    std::uint64_t ingest_ns) {
  const std::uint64_t before = shard.sink.packets_with_records();
  const std::size_t recs_before = shard.sink.size();
  shard.sw->process_batch(tuples, shard.sink);
  if (ingest_ns != 0) {
    const std::span<pisa::EmitRecord> recs = shard.sink.records();
    for (std::size_t r = recs_before; r < recs.size(); ++r) recs[r].ingest_ns = ingest_ns;
  }
  if (raw_mirror_) {
    shard.raw_mirror_packets += tuples.size();
    shard.tuples_to_sp += tuples.size();
    for (Tuple& t : tuples) shard.raw_sources.push_back(std::move(t));
  } else {
    shard.tuples_to_sp += shard.sink.packets_with_records() - before;
  }
}

void Fleet::process_legacy_on_shard(Shard& shard, const net::Packet& packet) {
  // The pre-batching per-packet path, kept verbatim behind batch_size == 1
  // as the equivalence baseline: fresh tuple, one switch call, per-packet
  // accounting.
  const Tuple source = query::materialize_tuple(packet);
  const std::uint64_t before = shard.sink.packets_with_records();
  const std::size_t recs_before = shard.sink.size();
  shard.sw->process_one(source, shard.sink);
  if (obs::enabled() && shard.sink.size() > recs_before) {
    const std::uint64_t now = obs::now_ns();
    const std::span<pisa::EmitRecord> recs = shard.sink.records();
    for (std::size_t r = recs_before; r < recs.size(); ++r) recs[r].ingest_ns = now;
  }
  if (raw_mirror_) {
    ++shard.raw_mirror_packets;
    ++shard.tuples_to_sp;
    shard.raw_sources.push_back(source);
  } else {
    shard.tuples_to_sp += shard.sink.packets_with_records() - before;
  }
}

bool Fleet::stalled(const Shard& shard) const noexcept {
  return injector_ != nullptr &&
         injector_->stall_active(shard.index, window_pub_.load(std::memory_order_acquire));
}

bool Fleet::maybe_resync(Shard& shard) {
  std::uint64_t target = shard.resync_to.load(std::memory_order_acquire);
  if (target == 0) return false;
  do {
    // Discard the condemned ring prefix without processing it; the driver
    // flushed every staged packet before quarantining, so the ring holds
    // everything up to `target`.
    while (shard.drained.load(std::memory_order_relaxed) < target) {
      const std::size_t want = static_cast<std::size_t>(
          target - shard.drained.load(std::memory_order_relaxed));
      const auto run = shard.queue.front_run(want);
      if (run.empty()) {
        std::this_thread::yield();
        continue;
      }
      shard.queue.retire(run.size());
      shard.drained.fetch_add(run.size(), std::memory_order_release);
    }
    // Clean slate: discard the quarantined window's partial output and
    // reset the registers, so the shard's next window starts from the same
    // switch state a healthy close would have left.
    shard.sink.clear();
    shard.raw_sources.clear();
    shard.tuples_to_sp = 0;
    shard.raw_mirror_packets = 0;
    shard.phases.reset();
    shard.sw->reset_all_registers();
  } while (!shard.resync_to.compare_exchange_strong(target, 0, std::memory_order_acq_rel));
  // Worker-thread emit is fine: the journal ring is lock-free and sharded.
  obs::Journal::global().emit(obs::EventType::kShardResynced,
                              window_pub_.load(std::memory_order_relaxed), 0,
                              static_cast<std::uint32_t>(shard.index));
  return true;
}

void Fleet::worker_loop(Worker& w) {
  const std::uint64_t slow_ns = injector_ ? injector_->spec().slow_ns : 0;
  std::uint64_t flushed_yields = 0, flushed_sleeps = 0;
  for (;;) {
    bool did_work = false;
    for (Shard* shard : w.shards) {
      // Parallel window close: the driver only raises close_req after the
      // barrier saw this shard drained, so the ring is empty and the
      // request can be served before (or instead of) any packet work.
      if (shard->close_req.load(std::memory_order_acquire) != 0) {
        do_shard_close(*shard);
        shard->close_req.store(0, std::memory_order_relaxed);
        shard->close_done.store(1, std::memory_order_release);
        did_work = true;
      }
      if (batch_size_ == 1) {
        // Legacy per-packet drain (the equivalence baseline).
        net::Packet p;
        for (;;) {
          if (maybe_resync(*shard)) {
            did_work = true;
            continue;
          }
          if (stalled(*shard)) break;
          if (!shard->queue.try_pop(p)) break;
          const std::uint64_t target = shard->resync_to.load(std::memory_order_acquire);
          if (target != 0 && shard->drained.load(std::memory_order_relaxed) < target) {
            // Quarantined while popping: this packet is condemned.
            shard->drained.fetch_add(1, std::memory_order_release);
            continue;
          }
          if (target != 0) maybe_resync(*shard);  // popped past the target: recover first
          if (slow_ns > 0) {
            injector_->note_slowdown();
            std::this_thread::sleep_for(std::chrono::nanoseconds(slow_ns));
          }
          process_legacy_on_shard(*shard, p);
          shard->drained.fetch_add(1, std::memory_order_release);
          did_work = true;
        }
        continue;
      }
      for (;;) {
        if (maybe_resync(*shard)) {
          did_work = true;
          continue;
        }
        if (stalled(*shard)) break;
        // Zero-copy drain: process packets in place in the ring slots, then
        // retire the run — no move out of the ring.
        const std::span<const net::Packet> run = shard->queue.front_run(batch_size_);
        if (run.empty()) break;
        // Re-check the quarantine cell after observing the run: the acquire
        // load of the ring head that made these packets visible also made
        // any earlier quarantine visible, so packets enqueued after a
        // quarantine can never be processed into a condemned emit arena.
        if (shard->resync_to.load(std::memory_order_acquire) != 0) continue;
        if (slow_ns > 0) {
          injector_->note_slowdown();
          std::this_thread::sleep_for(std::chrono::nanoseconds(slow_ns));
        }
        process_batch_on_shard(*shard, run);
        shard->queue.retire(run.size());
        // Release-publish the buffer writes; the driver's acquire load at
        // the barrier makes them visible without locks.
        shard->drained.fetch_add(run.size(), std::memory_order_release);
        did_work = true;
      }
    }
    if (did_work) {
      w.backoff.reset();
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) return;
    // Bounded spin before sleeping: a ring refill typically lands within
    // the pause/yield phases, and parking through the cv costs a syscall
    // round-trip plus the producer's mutex on every subsequent wake.
    if (!w.backoff.exhausted()) {
      w.backoff.pause();
      continue;
    }
    // Quiet point: flush the backoff tallies before parking.
    backoffs_ctr_->add(w.backoff.yields() - flushed_yields);
    sleeps_ctr_->add(w.backoff.sleeps() - flushed_sleeps);
    flushed_yields = w.backoff.yields();
    flushed_sleeps = w.backoff.sleeps();
    // Dekker handshake with wake(): publish "about to park", then check for
    // a signal that raced in; wake() stores signal before loading asleep,
    // so one side always sees the other.
    w.asleep.store(true, std::memory_order_seq_cst);
    if (w.signal.load(std::memory_order_seq_cst) ||
        stop_.load(std::memory_order_acquire)) {
      w.asleep.store(false, std::memory_order_relaxed);
      w.signal.store(false, std::memory_order_relaxed);
      w.backoff.reset();
      continue;
    }
    {
      std::unique_lock lk(w.mutex);
      w.cv.wait(lk, [&] {
        return w.signal.load(std::memory_order_relaxed) ||
               stop_.load(std::memory_order_acquire);
      });
    }
    w.asleep.store(false, std::memory_order_relaxed);
    w.signal.store(false, std::memory_order_relaxed);
    w.backoff.reset();
  }
}

void Fleet::wake(Worker& w) {
  // Wake elision: the common case (worker awake and scanning) is one
  // seq_cst store + one load, no mutex, no notify, no counter traffic.
  w.signal.store(true, std::memory_order_seq_cst);
  if (!w.asleep.load(std::memory_order_seq_cst)) return;
  wakeups_ctr_->add(1);
  {
    // The empty critical section closes the lost-wakeup window: a worker
    // past its signal re-check but not yet inside cv.wait holds the mutex,
    // so this lock cannot complete until it parks — and the notify below
    // then lands. (cv.wait re-checks the predicate under the lock.)
    std::lock_guard lk(w.mutex);
  }
  w.cv.notify_one();
}

void Fleet::shed_packet(Shard& /*shard*/) {
  // Ring stayed full past the watchdog budget: drop at ingest rather than
  // block the driver (and with it every healthy shard) on a sick worker.
  // The packet is already counted in current_.packets.
  ++current_.shed_packets;
  injector_->note_shed(1);
}

void Fleet::ingest_at(std::size_t switch_index, const net::Packet& packet) {
  ++current_.packets;
  if (auto_replan_) history_.back().push_back(packet);
  Shard& shard = *shards_.at(switch_index);
  const bool watchdog = injector_ != nullptr && injector_->spec().watchdog_ms > 0;
  if (batch_size_ == 1) {
    // Legacy per-packet handoff (the equivalence baseline).
    if (workers_.empty()) {
      process_legacy_on_shard(shard, packet);
      return;
    }
    Worker& w = *workers_[switch_index % workers_.size()];
    const bool was_empty = shard.queue.empty();
    shard.packets_ctr->add(1);
    if (!shard.queue.try_push(packet)) {
      shard.stalls_ctr->add(1);
      if (watchdog) {
        if (shard.shedding) {
          shed_packet(shard);
          return;
        }
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(injector_->spec().watchdog_ms);
        for (;;) {
          wake(w);
          driver_backoff_.pause();
          if (shard.queue.try_push(packet)) break;
          if (std::chrono::steady_clock::now() >= deadline) {
            shard.shedding = true;
            shed_packet(shard);
            driver_backoff_.reset();
            return;
          }
        }
      } else {
        do {
          wake(w);
          driver_backoff_.pause();
        } while (!shard.queue.try_push(packet));
      }
      driver_backoff_.reset();
    }
    ++shard.enqueued;
    if (was_empty) wake(w);
    return;
  }
  if (workers_.empty()) {
    // Inline batch path: materialize straight into a reusable tuple slot
    // (no packet copy), run the pipelines at chunk granularity while the
    // tuples are hot (there is no handoff to amortize without workers).
    if (shard.tuples_pending == shard.tuple_scratch.size()) shard.tuple_scratch.emplace_back();
    query::materialize_tuple_into(packet, shard.tuple_scratch[shard.tuples_pending++]);
    if (shard.tuples_pending >= std::min(batch_size_, kProcessChunk)) {
      flush_shard(switch_index);
    }
    return;
  }
  // Threaded batch path: stage straight into the ring slot (one copy, no
  // intermediate buffer); the slot stays invisible to the worker until the
  // batch-boundary publish.
  Worker& w = *workers_[switch_index % workers_.size()];
  if (!shard.queue.try_stage(packet)) {
    // Ring full: publish what we have, make sure the worker is awake, and
    // yield to it.
    shard.stalls_ctr->add(1);
    if (watchdog) {
      if (shard.shedding) {
        shed_packet(shard);
        return;
      }
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(injector_->spec().watchdog_ms);
      for (;;) {
        flush_shard(switch_index);
        wake(w);
        driver_backoff_.pause();
        if (shard.queue.try_stage(packet)) break;
        if (std::chrono::steady_clock::now() >= deadline) {
          shard.shedding = true;
          shed_packet(shard);
          driver_backoff_.reset();
          return;
        }
      }
    } else {
      do {
        flush_shard(switch_index);
        wake(w);
        driver_backoff_.pause();
      } while (!shard.queue.try_stage(packet));
    }
    driver_backoff_.reset();
  }
  ++shard.staged_count;
  if (shard.staged_count >= batch_size_) flush_shard(switch_index);
}

void Fleet::flush_shard(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  if (workers_.empty()) {
    if (shard.tuples_pending == 0) return;
    shard.packets_ctr->add(shard.tuples_pending);
    const std::uint64_t ingest_ns = obs::enabled() ? obs::now_ns() : 0;
    {
      obs::PhaseTimer t{driver_phases_, obs::Phase::kCompute};
      process_tuples_on_shard(shard, {shard.tuple_scratch.data(), shard.tuples_pending},
                              ingest_ns);
    }
    shard.tuples_pending = 0;
    if (deliver_at_flush_) {
      // The only shard's flush order is the canonical merge order, so its
      // records go to the SP now rather than piling up in the arena.
      obs::PhaseTimer t{driver_phases_, obs::Phase::kMerge};
      sp_->begin_delivery(ingest_ns != 0 ? obs::now_ns() : 0);
      deliver_shard(shard);
    }
    return;
  }
  if (shard.staged_count == 0) return;
  const bool was_empty = shard.queue.publish();
  shard.enqueued += shard.staged_count;
  if (obs::enabled()) {
    shard.packets_ctr->add(shard.staged_count);
    // Queue occupancy as the worker sees it right after this publish.
    shard.ring_depth->observe(shard.enqueued - shard.drained.load(std::memory_order_relaxed));
  }
  shard.staged_count = 0;
  if (was_empty) wake(*workers_[shard_index % workers_.size()]);
}

void Fleet::ingest(const net::Packet& packet) {
  ingest_at(shard_of(packet, shards_.size()), packet);
}

void Fleet::drain_barrier() {
  // Hand over every partially filled batch first (inline mode processes it
  // right here), then wait for the workers to publish everything enqueued.
  for (std::size_t i = 0; i < shards_.size(); ++i) flush_shard(i);
  std::fill(quarantined_.begin(), quarantined_.end(), std::uint8_t{0});
  if (workers_.empty()) {
    current_.contribution_mask = full_contribution_mask();
    return;
  }
  const bool watchdog = injector_ != nullptr && injector_->spec().watchdog_ms > 0;
  // One shared budget for the whole barrier: a healthy barrier completes in
  // microseconds, so the deadline only matters when a worker is sick, and
  // sharing it keeps the degraded window close bounded by one budget rather
  // than one per stalled shard.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(watchdog ? injector_->spec().watchdog_ms : 0);
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = *shards_[i];
    bool healthy = true;
    for (;;) {
      // A shard still finishing an older quarantine has not caught up even
      // if drained momentarily equals enqueued, so wait the resync out too.
      if (s.resync_to.load(std::memory_order_acquire) == 0 &&
          s.drained.load(std::memory_order_acquire) == s.enqueued) {
        break;
      }
      if (watchdog && std::chrono::steady_clock::now() >= deadline) {
        healthy = false;
        break;
      }
      // Workers may have raced to sleep around the last push; keep them
      // awake until their queues are dry.
      wake(*workers_[i % workers_.size()]);
      driver_backoff_.pause();
    }
    driver_backoff_.reset();
    if (healthy) {
      if (i < 64) mask |= 1ull << i;
    } else {
      // Quarantine: this shard's window is lost. Everything it was handed
      // since the last barrier counts late, its merge contribution is
      // skipped, and the worker is told to discard up to the current
      // enqueue count and reset before rejoining.
      quarantined_[i] = 1;
      const std::uint64_t late = s.enqueued - s.barrier_mark;
      current_.late_packets += late;
      injector_->note_watchdog_fire();
      injector_->note_late(late);
      obs::Journal::global().emit(obs::EventType::kShardQuarantined, current_.window_index, 0,
                                  static_cast<std::uint32_t>(i),
                                  static_cast<std::int64_t>(late), 0, 0, "watchdog timeout");
      // enqueued > 0 here: unhealthy requires drained != enqueued (or a
      // prior resync still pending, whose target was itself > 0).
      s.resync_to.store(s.enqueued, std::memory_order_release);
      wake(*workers_[i % workers_.size()]);
    }
    s.barrier_mark = s.enqueued;
  }
  current_.contribution_mask = mask;
  current_.partial = mask != full_contribution_mask();
}

WindowStats Fleet::do_close_window() {
  // Fix the closing window's index up front so journal events emitted
  // during the barrier/close (quarantine, sketch bounds) carry it; the
  // final increment below assigns the same value.
  current_.window_index = window_counter_;
  {
    obs::PhaseTimer merge_timer{driver_phases_, obs::Phase::kMerge};

    // 0. Window barrier: every shard queue drained, worker buffers
    //    published — or, under a watchdog, stragglers quarantined
    //    (quarantined_[i] set, their bit cleared from the contribution
    //    mask; their arenas are skipped below and wiped by the worker's
    //    resync, never merged).
    drain_barrier();

    // 1. Merge shard outputs into the shared stream executors in ascending
    //    switch order — deterministic regardless of worker interleaving.
    //    With wire faults configured every mirrored record round-trips the
    //    report codec through the faulty channel on this (merge) thread,
    //    so wire decisions are drawn deterministically in delivery order.
    //    A lone inline shard already delivered at every batch flush; its
    //    arena holds records here only on the per-packet path.
    // One delivery timestamp for the whole merge: every stamped record's
    // (delivery - ingest) lands in the per-(query, level) latency tallies.
    sp_->begin_delivery(obs::enabled() ? obs::now_ns() : 0);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (quarantined_[i]) continue;  // lost window: worker resync wipes it
      deliver_shard(*shards_[i]);
    }
    if (wire_) {
      // Release a still-held (reordered) record: reordering never crosses
      // a window boundary.
      wire_->flush([this](pisa::EmitRecord&& rec) { return deliver_record(std::move(rec)); });
    }
  }
  // The barrier made every worker's phase clock visible (the same
  // release/acquire pair that publishes the emit arenas); fold the
  // workers' ingest/compute time into this window's breakdown.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (quarantined_[i]) continue;  // worker-owned until its resync clears it
    driver_phases_.merge(shards_[i]->phases);
    shards_[i]->phases.reset();
  }

  std::vector<double> control_before;
  control_before.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    // A quarantined switch is worker-owned until its resync completes —
    // don't even read its stats (placeholder keeps the vector aligned).
    control_before.push_back(quarantined_[i] ? 0.0
                                             : shards_[i]->sw->stats().control_update_millis);
  }

  // 2. Parallel poll + reset. Each healthy shard's worker polls its own
  //    stateful tails into shard.partials (registers already hold the
  //    shard-locally merged aggregates) and resets its registers; the
  //    driver folds the published partials key-wise and ingests each
  //    pipeline's merged aggregates once — a two-level combining tree
  //    (shard-local fold in parallel, driver fold once) replacing the old
  //    serial poll+shape+ingest+reset sweep through one thread.
  //    Quarantined switches are skipped: their registers hold a torn
  //    mid-window state and are reset by the worker's resync. Stalled-but-
  //    healthy shards (deterministic per window, so driver and worker
  //    agree) close inline on the driver — their simulated-hung workers
  //    never touch them. Inline mode runs the identical code path.
  {
    obs::PhaseTimer t{driver_phases_, obs::Phase::kPoll};
    if (workers_.empty()) {
      for (std::size_t i = 0; i < shards_.size(); ++i) {
        if (quarantined_[i]) continue;
        do_shard_close(*shards_[i]);
      }
    } else {
      for (std::size_t i = 0; i < shards_.size(); ++i) {
        Shard& s = *shards_[i];
        if (quarantined_[i]) continue;
        if (stalled(s)) {
          do_shard_close(s);
          s.close_done.store(1, std::memory_order_relaxed);
          continue;
        }
        s.close_done.store(0, std::memory_order_relaxed);
        s.close_req.store(1, std::memory_order_release);
        wake(*workers_[i % workers_.size()]);
      }
      for (std::size_t i = 0; i < shards_.size(); ++i) {
        Shard& s = *shards_[i];
        if (quarantined_[i]) continue;
        while (s.close_done.load(std::memory_order_acquire) == 0) {
          wake(*workers_[i % workers_.size()]);
          driver_backoff_.pause();
        }
        driver_backoff_.reset();
      }
    }
    // Fold the participating shards' partials and ingest once per
    // pipeline; the first of them supplies the (identical) program.
    polled_.clear();
    const pisa::Switch* program = nullptr;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (quarantined_[i]) continue;
      if (program == nullptr) program = shards_[i]->sw.get();
      polled_.push_back(&shards_[i]->partials);
    }
    if (program != nullptr) sp_->ingest_partials(program->pipelines(), polled_);
  }

  obs::PhaseTimer close_timer{driver_phases_, obs::Phase::kClose};

  // 3. Close coarse-to-fine; winners install on every healthy switch (a
  //    quarantined switch misses this window's winners — acceptable
  //    degradation, its next window runs one refinement step behind).
  std::vector<pisa::Switch*> switches;
  switches.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (quarantined_[i]) continue;
    switches.push_back(shards_[i]->sw.get());
  }
  sp_->close_levels(current_, switches);
  apply_mitigations();

  // 4. Control latency = the slowest switch's update time this window
  //    (updates run in parallel across the fleet). The register reset
  //    itself already ran inside each shard's close phase; its modelled
  //    cost — plus this window's winner installs and drop rules from step
  //    3 — is in the stats delta, exactly as the serial close accounted
  //    it. Mitigation drops are summed over the healthy switches; a
  //    quarantined switch's drops count at its next healthy close.
  double control = 0.0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (quarantined_[i]) continue;  // reset happens in the worker's resync
    const pisa::SwitchStats& st = shards_[i]->sw->stats();
    control = std::max(control, st.control_update_millis - control_before[i]);
    current_.dropped_packets += st.dropped_packets - dropped_seen_[i];
    dropped_seen_[i] = st.dropped_packets;
  }
  current_.control_update_millis = control;

  // Quiet point: flush the driver's spin-wait escalation tallies.
  backoffs_ctr_->add(driver_backoff_.yields() - driver_flushed_yields_);
  sleeps_ctr_->add(driver_backoff_.sleeps() - driver_flushed_sleeps_);
  driver_flushed_yields_ = driver_backoff_.yields();
  driver_flushed_sleeps_ = driver_backoff_.sleeps();
  close_timer.stop();
  current_.phases = to_breakdown(driver_phases_);
  driver_phases_.reset();

  update_replan();

  // 5. Fault accounting: attribute this window's slice of the injector's
  //    cumulative counters, and re-arm shedding for the next window.
  if (injector_) {
    const fault::FaultAccount cumulative = injector_->account();
    current_.faults = cumulative - last_account_;
    last_account_ = cumulative;
    if (current_.partial) partial_windows_ctr_->add(1);
    for (auto& s : shards_) s->shedding = false;
  }

  current_.window_index = window_counter_++;
  // Publish the new window index to workers (stall schedules key on it).
  window_pub_.store(window_counter_, std::memory_order_release);
  WindowStats out = std::move(current_);
  current_ = WindowStats{};
  return out;
}

void Fleet::do_shard_close(Shard& shard) {
  const auto& pipelines = shard.sw->pipelines();
  shard.partials.resize(pipelines.size());
  for (std::size_t p = 0; p < pipelines.size(); ++p) {
    shard.partials[p].keys.clear();
    shard.partials[p].values.clear();
    if (!pipelines[p]->has_stateful_tail()) continue;
    shard.partials[p] = pipelines[p]->poll_partial();
  }
  // publish_obs inside sees the pre-reset occupancy, exactly like the
  // serial driver-side reset did; the registry handles are atomic and
  // per-switch, so concurrent shard closes never contend on a cell.
  shard.sw->reset_all_registers();
}

void Fleet::apply_plan(planner::Plan plan) {
  // Runs on the driver thread right after do_close_window, so every ring
  // is drained — EXCEPT a quarantined shard whose worker is still mid-
  // resync and touching its switch. Wait those out: after resync_to
  // returns to zero with drained == enqueued the worker can only sleep or
  // poll empty rings, so the switches are driver-owned for the swap.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = *shards_[i];
    while (s.resync_to.load(std::memory_order_acquire) != 0 ||
           s.drained.load(std::memory_order_acquire) != s.enqueued) {
      if (!workers_.empty()) wake(*workers_[i % workers_.size()]);
      driver_backoff_.pause();
    }
    driver_backoff_.reset();
  }
  // Tear down the SP before replacing plan_ (it holds pointers into it),
  // then reinstall every shard against the new plan. Pipeline reuse is
  // per shard: each shard hands its own compiled pipelines back and keeps
  // the unchanged ones (runtime state reset). Register-pressure faults are
  // not re-applied — the swap installs clean, like an auto-replan.
  sp_.reset();
  obs::Span compile_span("pipeline.compile", "runtime");
  for (auto& shard : shards_) {
    PipelineBuild build = build_pipelines(plan, shard->sw->release_pipelines(), {});
    const std::string err = shard->sw->install(std::move(build.pipelines), build.resources);
    assert(err.empty() && "plan does not fit the switch it was planned for");
    (void)err;
  }
  compile_span.stop();
  plan_ = std::move(plan);
  sp_ = std::make_unique<StreamProcessor>(plan_);
  raw_mirror_ = sp_->wants_raw_mirror();
  // Drop rules are rebuilt from the next window's detections, and the old
  // plan's overflow history says nothing about the new register sizing.
  // The drop baseline stays: install keeps the switches' cumulative stats,
  // so a shard quarantined this window still charges its drops at its next
  // healthy close.
  for (auto& shard : shards_) shard->sw->clear_blocks();
  overflow_streak_ = 0;
  replan_recommended_ = false;
}

void Fleet::deliver_shard(Shard& shard) {
  total_records_ += shard.sink.size() + shard.raw_mirror_packets;
  if (wire_) {
    // Round-trip every record through the report codec over the faulty
    // wire, drawing wire decisions deterministically in delivery order;
    // overflow accounting moves to the delivered side.
    for (const pisa::EmitRecord& rec : shard.sink.records()) {
      wire_->transmit(rec, [this](pisa::EmitRecord&& d) { return deliver_record(std::move(d)); });
    }
  } else {
    for (pisa::EmitRecord& rec : shard.sink.records()) deliver_record(std::move(rec));
  }
  sp_->deliver_raw_batch(shard.raw_sources);
  // tuples_to_sp stays switch-side accounting: what the switch *sent*, not
  // what survived a faulty wire.
  current_.tuples_to_sp += shard.tuples_to_sp;
  current_.raw_mirror_packets += shard.raw_mirror_packets;
  shard.sink.clear();
  shard.raw_sources.clear();
  shard.tuples_to_sp = 0;
  shard.raw_mirror_packets = 0;
}

bool Fleet::deliver_record(pisa::EmitRecord&& rec) {
  // Overflow counts only accepted records: a corrupted header the SP's
  // routing boundary rejects counts as a wire decode failure instead.
  const bool overflow = rec.kind == pisa::EmitRecord::Kind::kOverflow;
  if (!sp_->deliver(std::move(rec))) return false;
  if (overflow) {
    ++current_.overflow_records;
    ++total_overflows_;
  }
  return true;
}

void Fleet::apply_mitigations() {
  for (const auto& policy : mitigations_) {
    const planner::PlannedQuery* pq = sp_->planned(policy.qid);
    if (!pq) continue;
    const int finest = pq->chain.back();
    const auto& schema = pq->exec_queries.at(finest).root()->output_schema();
    const auto col = schema.index_of(policy.output_column);
    if (!col) continue;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (quarantined_[i]) continue;  // worker-owned until its resync
      pisa::Switch& sw = *shards_[i]->sw;
      for (const auto& result : current_.results) {
        if (result.qid != policy.qid) continue;
        for (const auto& t : result.outputs) {
          if (sw.blocked_keys() >= policy.max_entries) break;
          sw.block(policy.packet_field, t.at(*col));
        }
      }
    }
  }
}

void Fleet::update_replan() {
  // Re-planning trigger: sustained collision overflow means the registers
  // were sized for different traffic (paper §5). The fraction is over
  // *processed* packets: mitigation-dropped packets never reach the
  // registers, so counting them in the denominator would deflate the
  // fraction exactly when a drop storm coincides with register pressure —
  // the moment the trigger matters most.
  const std::uint64_t dropped = std::min(current_.dropped_packets, current_.packets);
  const std::uint64_t processed = current_.packets - dropped;
  const double fraction = processed == 0 ? 0.0
                                         : static_cast<double>(current_.overflow_records) /
                                               static_cast<double>(processed);
  overflow_streak_ = fraction > replan_policy_.overflow_threshold ? overflow_streak_ + 1 : 0;
  if (overflow_streak_ >= replan_policy_.consecutive_windows && !replan_recommended_) {
    replan_recommended_ = true;
    obs::Journal::global().emit(obs::EventType::kReplanTriggered, current_.window_index, 0, 0,
                                static_cast<std::int64_t>(current_.overflow_records),
                                overflow_streak_, 0, "overflow streak");
  }
  if (!auto_replan_) return;

  // Acted-on re-planning: consume the recommendation by re-running the
  // planner against the retained live windows (whose key counts reflect
  // the drifted traffic) and hot-swapping the plan before the next window.
  if (replan_recommended_) {
    std::vector<net::Packet> training;
    std::size_t total = 0;
    for (const auto& w : history_) total += w.size();
    training.reserve(total);
    for (const auto& w : history_) training.insert(training.end(), w.begin(), w.end());
    if (!training.empty()) {
      planner::Planner planner(auto_replan_cfg_.planner);
      apply_plan(planner.plan(*auto_replan_cfg_.queries, training));
      ++replans_;
      replans_ctr_->add(1);
      current_.plan_swapped = true;
      obs::Journal::global().emit(obs::EventType::kReplanApplied, current_.window_index, 0, 0,
                                  static_cast<std::int64_t>(replans_),
                                  static_cast<std::int64_t>(training.size()), 0, "auto-replan");
    }
  }
  history_.emplace_back();
  while (history_.size() > auto_replan_cfg_.history_windows) history_.pop_front();
}

void Fleet::enable_mitigation(MitigationPolicy policy) {
  mitigations_.push_back(std::move(policy));
}

void Fleet::enable_auto_replan(AutoReplanConfig cfg) {
  assert(cfg.queries != nullptr);
  auto_replan_cfg_ = std::move(cfg);
  if (auto_replan_cfg_.history_windows == 0) auto_replan_cfg_.history_windows = 1;
  auto_replan_ = true;
  history_.clear();
  history_.emplace_back();
  replans_ctr_ = &obs::Registry::global().counter("sonata_runtime_replans_total");
}

double Fleet::overflow_fraction() const noexcept {
  return total_records_ == 0
             ? 0.0
             : static_cast<double>(total_overflows_) / static_cast<double>(total_records_);
}

}  // namespace sonata::runtime
