// Discrete-event loop: integer-nanosecond timestamps, deterministic
// tie-breaking by scheduling order.
//
// Performance design (see README "Performance"):
//  * Callbacks are stored in EventCallback, a trivially copyable
//    type-erased callable: a 56-byte inline buffer and one invoke pointer.
//    The captures the simulator schedules ([this], [this, Ack], an
//    in-flight Packet) dispatch through that pointer with no destructor
//    work, so scheduling performs no heap allocation.  A capture that is
//    larger or not trivially copyable does not compile.
//  * Pending events live in slots allocated in fixed 512-entry chunks
//    (stable addresses, recycled through an intrusive free list), so the
//    loop can invoke a callback in place — no per-event move of the
//    callable.  Each slot remembers the id of the event it currently
//    holds; a stale id simply fails that comparison, which makes cancel()
//    an O(1) store (the queue entry is left behind as a tombstone and
//    dropped lazily when reached — the cost profile of the seed's
//    hash-map erase, without the hash map).
//  * The ready queue is a timing wheel (16384 buckets of 8.2 us; ~134 ms
//    horizon) backed by an implicit 4-ary min-heap for events beyond the
//    horizon.  Wheel insertion is O(1) radix bucketing with no
//    comparisons — the cost that dominates a comparison heap on random
//    deadlines is branch misprediction, which the wheel sidesteps
//    entirely.  Far events migrate into the wheel as the window slides.
//  * Every entry carries one 128-bit key packing (time, seq, slot); seq is
//    a global monotone counter assigned per schedule call, so events fire
//    in exactly the seed implementation's (time, id) order — same-time
//    events in FIFO scheduling order, keeping simulation output
//    bit-identical.  A bucket is drained by unlinking its entire
//    earliest-time run in one pass and firing it in seq order (one scan +
//    sort per run, not one scan per event), so a k-event same-time burst —
//    a phase start waking every flow at once — costs O(k log k) instead of
//    the O(k^2) repeated min-extraction.
//  * Timer binds its handler (owner pointer + function pointer) once, at
//    construction; arming takes only a time.  While armed, re-arming keeps
//    the slot and only re-enqueues the 16-byte entry (reschedule()), so
//    per-ACK RTO rearming touches no callback storage.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/time.h"

namespace nimbus::sim {

using EventId = std::uint64_t;

/// Type-erased `void()` callable held entirely inline: a 56-byte buffer
/// plus one invoke pointer, 64 bytes in all.  Only trivially copyable
/// callables that fit are accepted — anything else is a compile error —
/// so a callback is copied as plain bytes, never allocates and never
/// needs destroying.
class EventCallback {
 public:
  static constexpr std::size_t kInlineBytes = 56;

  /// True for the callables EventCallback can hold.
  template <typename D>
  static constexpr bool fits() {
    return sizeof(D) <= kInlineBytes &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_trivially_copyable_v<D>;
  }

  EventCallback() noexcept = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventCallback> &&
                                        std::is_invocable_r_v<void, D&> &&
                                        fits<D>()>>
  EventCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace<F>(std::forward<F>(f));
  }

  /// Constructs a callable in place, replacing any previous one.
  template <typename F, typename D = std::decay_t<F>>
  void emplace(F&& f) {
    static_assert(fits<D>(),
                  "an event callback must be trivially copyable and fit the "
                  "56-byte inline buffer");
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
    invoke_ = [](unsigned char* p) {
      (*std::launder(reinterpret_cast<D*>(p)))();
    };
  }

  void operator()() { invoke_(storage_); }

 private:
  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  void (*invoke_)(unsigned char*) = nullptr;
};

class EventLoop {
 public:
  EventLoop();

  /// Schedules `cb` at absolute time `t` (must be >= now()).  Accepts any
  /// callable EventCallback can hold; it is constructed directly into a
  /// pooled slot.
  template <typename F>
  EventId schedule(TimeNs t, F&& cb) {
    const std::uint32_t s = acquire_slot(t);
    Slot& slot = slot_ref(s);
    slot.cb.emplace<F>(std::forward<F>(cb));
    const EventId id = make_event_id(s);
    slot.pending_id = id;
    slot.time = static_cast<std::uint64_t>(t);
    enqueue_entry(t, id);
    ++live_;
    return id;
  }

  /// Schedules `cb` after a relative delay.
  template <typename F>
  EventId schedule_in(TimeNs delay, F&& cb) {
    return schedule(now_ + delay, std::forward<F>(cb));
  }

  /// Cancels a pending event; no-op if already fired or cancelled.
  void cancel(EventId id);

  /// Moves a *pending* event to a new time, keeping its slot and callback.
  /// Returns the replacement id (the old id becomes invalid).  The event
  /// takes a fresh FIFO position, exactly as cancel() + schedule() would.
  EventId reschedule(EventId id, TimeNs t);

  /// Runs events until the queue empties or the next event is past `t_end`;
  /// now() is t_end afterwards (unless stop() was called earlier).
  void run_until(TimeNs t_end);

  /// Runs until the queue is empty.
  void run();

  /// Stops the loop after the current callback returns.
  void stop() { stopped_ = true; }

  /// Why the last run stopped early, if a run budget tripped.
  enum class BudgetStop : std::uint8_t { kNone, kEvents, kWall };

  /// Arms a watchdog for subsequent run_until calls: the loop stops (as if
  /// stop() were called; unfired events stay pending) after processing
  /// `max_events` further events, or once `max_wall_seconds` of real time
  /// elapse from this call.  Either limit can be 0 = unlimited.  The event
  /// budget is exact and deterministic; the wall clock is polled every few
  /// thousand events, so it is a hang guard, not a precise timer.  With
  /// both limits 0 the drain path stays a single always-false compare per
  /// event.  Re-arming resets budget_stop().
  void set_run_budget(std::uint64_t max_events, double max_wall_seconds);
  BudgetStop budget_stop() const { return budget_stop_; }

  /// Registers the loop's instruments in `m` (NIMBUS_OBS counters layer):
  /// loop.events_fired, loop.wheel_inserts, loop.far_heap_inserts, and the
  /// loop.batch_size histogram of equal-time drain-batch sizes.  Call at
  /// setup time; pass nullptr to detach (handles become no-ops again).
  void attach_metrics(obs::MetricsRegistry* m);

  TimeNs now() const { return now_; }
  std::size_t pending_events() const { return live_; }
  std::uint64_t processed_events() const { return processed_; }
  /// High-water mark of the slot pool — the largest number of events that
  /// were ever pending at once (introspection / tests).
  std::size_t allocated_slots() const { return total_slots_; }

 private:
  // EventId layout: [seq : 44][slot : 20].  seq is a global monotone
  // counter starting at 1, so ids are unique and nonzero; ~17e12 events
  // and ~1e6 concurrent events per loop, both far beyond any scenario.
  static constexpr std::uint32_t kSlotBits = 20;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr std::size_t kChunkShift = 9;  // 512 slots per chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;

  // Timing-wheel geometry: 2^14 buckets of 2^13 ns (~8.2 us) give a
  // ~134 ms horizon — wide enough for every per-packet event, ACK delivery
  // and report/pacing timer at paper-scale RTTs; RTOs and flow starts
  // overflow to the far heap and migrate in as the window slides.
  static constexpr std::uint64_t kBucketShift = 13;
  static constexpr std::uint64_t kWheelBits = 14;
  static constexpr std::uint64_t kWheelSize = std::uint64_t{1} << kWheelBits;
  static constexpr std::uint64_t kWheelMask = kWheelSize - 1;
  static constexpr std::size_t kOccWords = kWheelSize / 64;

  // One 128-bit key = [time : 64][seq : 44][slot : 20]: a single unsigned
  // compare orders by (time, seq) — a strict total order (seq is unique),
  // so extraction follows exactly the seed implementation's (time, id)
  // order; the slot rides along for free.
  struct Entry {
    unsigned __int128 key;
  };
  static unsigned __int128 pack_key(TimeNs t, std::uint64_t id) {
    return static_cast<unsigned __int128>(static_cast<std::uint64_t>(t))
               << 64 |
           id;
  }
  static TimeNs time_of(unsigned __int128 key) {
    return static_cast<TimeNs>(static_cast<std::uint64_t>(key >> 64));
  }

  struct Slot {
    EventCallback cb;
    std::uint64_t pending_id = 0;    // 0 = empty/free
    std::uint64_t time = 0;          // deadline of the pending event
    std::uint32_t next_free = kNoSlot;
    // True while the event sits in the drain batch (unlinked from its
    // bucket but not yet fired): cancel/reschedule must not try to unlink
    // it from the wheel again.
    bool extracted = false;
  };

  Slot& slot_ref(std::uint32_t s) {
    return chunks_[s >> kChunkShift][s & (kChunkSize - 1)];
  }

  EventId make_event_id(std::uint32_t s) {
    NIMBUS_CHECK_MSG(next_seq_ < std::uint64_t{1} << (64 - kSlotBits),
                     "event sequence space exhausted");
    return next_seq_++ << kSlotBits | s;
  }

  // Wall-clock poll cadence for the run budget: cheap enough to be
  // invisible (one steady_clock read per ~4k events), fine-grained enough
  // that a runaway cell overshoots its wall limit by milliseconds.
  static constexpr std::uint64_t kBudgetCheckInterval = 4096;

  std::uint32_t acquire_slot(TimeNs t);
  void release_slot(std::uint32_t s);
  // Slow path of the per-event budget compare: trips the event/wall limit
  // (setting stopped_ + budget_stop_) or re-arms budget_check_next_.
  void check_budget();
  // Fires a due event in place: advances now_ to `t`, retires the id, and
  // invokes the callback in its slot (shared by the drain's
  // distinct-deadline fast path and the equal-time batch loop).
  void fire_slot(Slot& slot, std::uint64_t id, TimeNs t);

  // Wheel entries are 24-byte nodes in a pooled arena, linked into their
  // bucket.  The pool's high-water mark tracks the maximum number of
  // concurrently pending near events — not which buckets simulated time
  // happens to visit — so steady-state insertion allocates nothing no
  // matter how far the clock advances.
  struct Node {
    std::uint64_t time;
    std::uint64_t id;
    std::uint32_t next;
  };
  static unsigned __int128 node_key(const Node& n) {
    return static_cast<unsigned __int128>(n.time) << 64 | n.id;
  }
  static constexpr std::uint32_t kNilNode = 0xffffffffu;

  // --- ready queue (wheel + far heap) ---
  void enqueue_entry(TimeNs t, std::uint64_t id);
  void wheel_insert(TimeNs t, std::uint64_t id, std::uint64_t abs_bucket);
  void wheel_unlink_if_near(const Slot& slot, std::uint64_t id);
  std::uint64_t next_nonempty_bucket() const;  // needs wheel_count_ > 0
  void pull_far_into_window();
  void heap_push(Entry e);
  void heap_pop_min();

  std::vector<Node> pool_;            // wheel-node arena (index-linked)
  std::vector<std::uint64_t> batch_;  // equal-time drain batch (reused)
  std::uint32_t node_free_ = kNilNode;
  std::array<std::uint32_t, kWheelSize> bucket_head_;  // kNilNode = empty
  std::array<std::uint64_t, kOccWords> occ_{};  // non-empty-bucket bitmap
  std::uint64_t cursor_ = 0;     // absolute index of the window's first bucket
  std::size_t wheel_count_ = 0;  // entries currently in the wheel
  std::vector<Entry> heap_;      // implicit 4-ary min-heap of far events

  // Fixed-size chunks give slots stable addresses, so callbacks are
  // invoked in place even if the pool grows mid-callback.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint32_t total_slots_ = 0;
  std::size_t live_ = 0;
  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  bool stopped_ = false;

  // Run budget (set_run_budget).  budget_check_next_ is the processed_
  // count at which the drain takes the check_budget slow path; all-ones
  // when no budget is armed, so the steady-state cost is one compare.
  std::uint64_t budget_check_next_ = ~std::uint64_t{0};
  std::uint64_t budget_events_end_ = 0;  // absolute processed_ limit; 0 = off
  bool budget_wall_armed_ = false;
  std::chrono::steady_clock::time_point budget_wall_deadline_{};
  BudgetStop budget_stop_ = BudgetStop::kNone;

  // Telemetry handles (null when NIMBUS_OBS is off: each update is then a
  // single predictable branch — the cost the bench_micro obs pair gates).
  obs::Counter obs_fired_;
  obs::Counter obs_wheel_inserts_;
  obs::Counter obs_heap_inserts_;
  obs::Histogram obs_batch_size_;
};

/// A single rearmable timer (e.g. an RTO) bound at construction to one
/// handler: `handler(owner)` runs at most once per arm.  Re-arming cancels
/// the previous schedule.  The loop holds only an 8-byte trampoline, so
/// arming never allocates, and re-arming while armed reuses the pending
/// slot via EventLoop::reschedule.
class Timer {
 public:
  using Handler = void (*)(void* owner);

  /// Handler adapter: `Timer::method<T, &T::f>` calls `owner->f()`.
  template <typename T, void (T::*F)()>
  static void method(void* owner) {
    (static_cast<T*>(owner)->*F)();
  }

  Timer(EventLoop* loop, void* owner, Handler handler)
      : loop_(loop), owner_(owner), handler_(handler) {}
  ~Timer() { cancel(); }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  void arm(TimeNs at);
  void arm_in(TimeNs delay) { arm(loop_->now() + delay); }
  void cancel();
  bool armed() const { return pending_ != 0; }

 private:
  struct Fire {
    Timer* timer;
    void operator()() const { timer->fire(); }
  };
  void fire();

  EventLoop* loop_;
  void* owner_;
  Handler handler_;
  EventId pending_ = 0;  // 0 = not armed (event ids are nonzero)
};

static_assert(sizeof(Timer) <= 4 * sizeof(void*),
              "Timer holds a bound handler, not a callback");

}  // namespace nimbus::sim
