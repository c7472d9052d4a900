#include "sim/event_loop.h"

#include <algorithm>
#include <limits>

namespace nimbus::sim {

EventLoop::EventLoop() {
  // A slot is the callback plus the id it holds and a free-list link;
  // growing it costs every pending event a cache line's share.
  static_assert(sizeof(Slot) <= 80, "an event slot is callback + id + link");
  bucket_head_.fill(kNilNode);
}

std::uint32_t EventLoop::acquire_slot(TimeNs t) {
  NIMBUS_CHECK_MSG(t >= now_, "cannot schedule events in the past");
  if (free_head_ != kNoSlot) {
    const std::uint32_t s = free_head_;
    free_head_ = slot_ref(s).next_free;
    return s;
  }
  NIMBUS_CHECK_MSG(total_slots_ <= kSlotMask, "event slot pool exhausted");
  if (total_slots_ == chunks_.size() * kChunkSize) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  }
  return total_slots_++;
}

void EventLoop::fire_slot(Slot& slot, std::uint64_t id, TimeNs t) {
  now_ = t;
  slot.pending_id = 0;  // a self-cancel inside the callback is a no-op
  --live_;
  ++processed_;
  obs_fired_.inc();
  // In-place invocation: chunked slots have stable addresses, so the
  // callback may grow the pools or the queue freely while running.  The
  // slot is not on the free list yet, so nothing can re-occupy it.
  slot.cb();
  slot.next_free = free_head_;
  free_head_ = static_cast<std::uint32_t>(id & kSlotMask);
}

void EventLoop::wheel_insert(TimeNs t, std::uint64_t id,
                             std::uint64_t abs_bucket) {
  std::uint32_t n;
  if (node_free_ != kNilNode) {
    n = node_free_;
    node_free_ = pool_[n].next;
  } else {
    n = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  const std::uint64_t b = abs_bucket & kWheelMask;
  pool_[n] = {static_cast<std::uint64_t>(t), id, bucket_head_[b]};
  bucket_head_[b] = n;
  occ_[b >> 6] |= std::uint64_t{1} << (b & 63);
  ++wheel_count_;
  obs_wheel_inserts_.inc();
}

void EventLoop::enqueue_entry(TimeNs t, std::uint64_t id) {
  // Clamp to the cursor: after a run_until() boundary the cursor can sit
  // ahead of now(), and an entry bucketed below it could alias a bucket a
  // full wheel turn away.  Clamping is order-preserving — every bucket
  // below the cursor is empty, and buckets drain by smallest (time, seq)
  // key, so an early entry placed in the cursor bucket still fires first.
  const std::uint64_t ab = std::max(
      static_cast<std::uint64_t>(t) >> kBucketShift, cursor_);
  if (ab >= cursor_ + kWheelSize) {
    heap_push({pack_key(t, id)});
  } else {
    wheel_insert(t, id, ab);
  }
}

std::uint64_t EventLoop::next_nonempty_bucket() const {
  const std::uint64_t start = cursor_ & kWheelMask;
  std::uint64_t w = start >> 6;
  std::uint64_t word = occ_[w] & (~std::uint64_t{0} << (start & 63));
  while (word == 0) {
    w = (w + 1) & (kOccWords - 1);
    word = occ_[w];
  }
  const auto pos =
      (w << 6) | static_cast<std::uint64_t>(__builtin_ctzll(word));
  // Convert the circular position back to an absolute bucket index.
  const std::uint64_t base = cursor_ - start;
  return pos >= start ? base + pos : base + pos + kWheelSize;
}

void EventLoop::pull_far_into_window() {
  while (!heap_.empty()) {
    const TimeNs t = time_of(heap_[0].key);
    const std::uint64_t ab = static_cast<std::uint64_t>(t) >> kBucketShift;
    if (ab >= cursor_ + kWheelSize) break;
    const auto id = static_cast<std::uint64_t>(heap_[0].key);
    heap_pop_min();
    // Drop far tombstones here instead of carrying them into a bucket.
    if (slot_ref(static_cast<std::uint32_t>(id & kSlotMask)).pending_id ==
        id) {
      wheel_insert(t, id, ab);
    }
  }
}

void EventLoop::heap_push(Entry e) {
  obs_heap_inserts_.inc();
  // Hole-based sift-up: shift parents down and place the new entry once.
  heap_.push_back(e);
  std::size_t hole = heap_.size() - 1;
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 4;
    if (heap_[parent].key <= e.key) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = e;
}

void EventLoop::heap_pop_min() {
  // Hole-based sift-down of the last entry from the root.
  const std::size_t n = heap_.size() - 1;
  const Entry last = heap_[n];
  heap_.pop_back();
  if (n == 0) return;
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = 4 * hole + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (heap_[c].key < heap_[best].key) best = c;
    }
    if (last.key <= heap_[best].key) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = last;
}

void EventLoop::cancel(EventId id) {
  const auto s = static_cast<std::uint32_t>(id & kSlotMask);
  if (id == 0 || s >= total_slots_) return;
  Slot& slot = slot_ref(s);
  if (slot.pending_id != id) return;  // fired, cancelled, or stale
  // The queue entry stays behind as a tombstone: the drain and
  // pull_far_into_window drop any entry whose slot no longer holds its id.
  slot.pending_id = 0;
  slot.next_free = free_head_;
  free_head_ = s;
  --live_;
}

void EventLoop::set_run_budget(std::uint64_t max_events,
                               double max_wall_seconds) {
  budget_stop_ = BudgetStop::kNone;
  budget_events_end_ = max_events == 0 ? 0 : processed_ + max_events;
  budget_wall_armed_ = max_wall_seconds > 0.0;
  if (budget_wall_armed_) {
    budget_wall_deadline_ =
        // detlint:allow(R1): watchdog wall-deadline arm; never feeds sim state
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(max_wall_seconds));
  }
  if (budget_events_end_ == 0 && !budget_wall_armed_) {
    budget_check_next_ = ~std::uint64_t{0};
    return;
  }
  budget_check_next_ = processed_ + kBudgetCheckInterval;
  if (budget_events_end_ != 0 && budget_events_end_ < budget_check_next_) {
    budget_check_next_ = budget_events_end_;
  }
}

void EventLoop::check_budget() {
  if (budget_events_end_ != 0 && processed_ >= budget_events_end_) {
    budget_stop_ = BudgetStop::kEvents;
    stopped_ = true;
    return;
  }
  if (budget_wall_armed_ &&
      // detlint:allow(R1): watchdog wall-deadline poll; never feeds sim state
      std::chrono::steady_clock::now() >= budget_wall_deadline_) {
    budget_stop_ = BudgetStop::kWall;
    stopped_ = true;
    return;
  }
  budget_check_next_ = processed_ + kBudgetCheckInterval;
  if (budget_events_end_ != 0 && budget_events_end_ < budget_check_next_) {
    budget_check_next_ = budget_events_end_;
  }
}

// NIMBUS_HOT_PATH begin
void EventLoop::run_until(TimeNs t_end) {
  stopped_ = false;
  while (!stopped_) {
    // Move the window to the next non-empty bucket (or jump it to the far
    // heap's earliest entry), then migrate far events that the slide
    // exposed.
    if (wheel_count_ > 0) {
      cursor_ = next_nonempty_bucket();
    } else if (!heap_.empty()) {
      cursor_ =
          static_cast<std::uint64_t>(time_of(heap_[0].key)) >> kBucketShift;
    } else {
      break;  // queue empty
    }
    pull_far_into_window();

    // Drain bucket `cursor_` in (time, seq) order.  The common case
    // (distinct deadlines) is exactly the PR 2 path: unlink the
    // smallest-key node and fire it in place.  When two consecutive
    // extractions carry the *same* deadline, the bucket holds an
    // equal-time run — a phase start waking every flow at once — and the
    // drain switches to batch mode: unlink every remaining entry with
    // that deadline in one pass and fire them in seq order (ids are
    // monotone in seq, so sorting ids sorts seqs).  A k-event burst thus
    // costs two scans plus an O(k log k) sort instead of the k
    // min-extraction scans (O(k^2)) the per-event path would pay, while
    // distinct-deadline traffic keeps the per-event path's exact cost.
    // Callbacks may append to this same bucket but cannot make anything
    // earlier pending: at the running deadline only under a fresh seq,
    // larger than every extracted one (schedule_as re-queues under an
    // older seq only at a later time), so firing an extracted run to
    // completion before re-scanning preserves the exact global (time, seq)
    // order.
    const std::uint64_t b = cursor_ & kWheelMask;
    bool reached_end = false;
    std::uint64_t last_fired_time = 0;
    bool have_fired = false;
    while (!stopped_) {
      const std::uint32_t head = bucket_head_[b];
      if (head == kNilNode) break;
      // Smallest (time, seq) key in the bucket, as a single 128-bit scan.
      std::uint32_t best = head;
      std::uint32_t best_prev = kNilNode;
      unsigned __int128 best_key = node_key(pool_[head]);
      for (std::uint32_t prev = head, cur = pool_[head].next;
           cur != kNilNode; prev = cur, cur = pool_[cur].next) {
        const unsigned __int128 k = node_key(pool_[cur]);
        if (k < best_key) {
          best_key = k;
          best = cur;
          best_prev = prev;
        }
      }
      const std::uint64_t t_min = pool_[best].time;
      if (static_cast<TimeNs>(t_min) > t_end) {
        reached_end = true;
        break;
      }

      if (!have_fired || t_min != last_fired_time) {
        // Distinct-deadline fast path (the PR 2 per-event drain).
        const std::uint64_t id = pool_[best].id;
        if (best_prev == kNilNode) {
          bucket_head_[b] = pool_[best].next;
        } else {
          pool_[best_prev].next = pool_[best].next;
        }
        pool_[best].next = node_free_;
        node_free_ = best;
        --wheel_count_;
        Slot& slot = slot_ref(static_cast<std::uint32_t>(id & kSlotMask));
        if (slot.pending_id != id) continue;  // cancelled
        have_fired = true;
        last_fired_time = t_min;
        fire_slot(slot, id, static_cast<TimeNs>(t_min));
        if (processed_ >= budget_check_next_) check_budget();
        continue;
      }

      // Same deadline twice in a row: equal-time run detected (its first
      // event just fired through the fast path above).  Extract the rest.
      batch_.clear();
      {
        // Pass 2: unlink the whole run.  Tombstones (cancelled ids) are
        // dropped here; a batch member cancelled by an earlier member's
        // callback is skipped when its turn comes.
        std::uint32_t prev = kNilNode;
        std::uint32_t cur = bucket_head_[b];
        while (cur != kNilNode) {
          const std::uint32_t next = pool_[cur].next;
          if (pool_[cur].time == t_min) {
            const std::uint64_t id = pool_[cur].id;
            if (prev == kNilNode) {
              bucket_head_[b] = next;
            } else {
              pool_[prev].next = next;
            }
            pool_[cur].next = node_free_;
            node_free_ = cur;
            --wheel_count_;
            if (slot_ref(static_cast<std::uint32_t>(id & kSlotMask))
                    .pending_id == id) {
              // detlint:allow(R5): batch_ is reused; no alloc past high-water
              batch_.push_back(id);
            }
          } else {
            prev = cur;
          }
          cur = next;
        }
        std::sort(batch_.begin(), batch_.end());
        // +1: the run's first event fired through the fast path above.
        // A run whose other entries were all tombstones is no batch.
        if (!batch_.empty()) obs_batch_size_.observe(batch_.size() + 1);
      }

      for (std::size_t i = 0; i < batch_.size(); ++i) {
        const std::uint64_t id = batch_[i];
        Slot& slot = slot_ref(static_cast<std::uint32_t>(id & kSlotMask));
        if (slot.pending_id != id) continue;  // cancelled mid-batch
        fire_slot(slot, id, static_cast<TimeNs>(t_min));
        if (processed_ >= budget_check_next_) check_budget();
        if (stopped_) {
          // stop() mid-run: re-link the unfired remainder so it is still
          // pending for the next run_until call.
          for (std::size_t j = i + 1; j < batch_.size(); ++j) {
            const std::uint64_t rid = batch_[j];
            if (slot_ref(static_cast<std::uint32_t>(rid & kSlotMask))
                    .pending_id == rid) {
              wheel_insert(static_cast<TimeNs>(t_min), rid, cursor_);
            }
          }
          break;
        }
      }
    }
    if (bucket_head_[b] == kNilNode) {
      occ_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    }
    if (reached_end) break;
  }
  if (!stopped_ && now_ < t_end) now_ = t_end;
}
// NIMBUS_HOT_PATH end

void EventLoop::run() { run_until(std::numeric_limits<TimeNs>::max()); }

void EventLoop::attach_metrics(obs::MetricsRegistry* m) {
  if (m == nullptr) {
    obs_fired_ = {};
    obs_wheel_inserts_ = {};
    obs_heap_inserts_ = {};
    obs_batch_size_ = {};
    return;
  }
  obs_fired_ = m->counter("loop.events_fired");
  obs_wheel_inserts_ = m->counter("loop.wheel_inserts");
  obs_heap_inserts_ = m->counter("loop.far_heap_inserts");
  obs_batch_size_ = m->histogram("loop.batch_size");
}

void Timer::arm(TimeNs at, std::uint64_t seq) {
  cancel();
  pending_ = loop_->schedule_as(at, seq, Fire{this});
}

void Timer::cancel() {
  if (pending_ != 0) {
    loop_->cancel(pending_);
    pending_ = 0;
  }
}

void Timer::fire() {
  pending_ = 0;  // the handler may re-arm this timer
  handler_(owner_);
}

}  // namespace nimbus::sim
