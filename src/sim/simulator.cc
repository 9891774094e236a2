#include "sim/simulator.h"

#include <utility>

#include "common/logging.h"

namespace replidb::sim {

Simulator::Simulator() {
  // Most recently constructed simulator wins the log clock; benches that
  // stand up clusters sequentially always stamp with the live one.
  SetLogClock(this, [this] { return now_; });
}

Simulator::~Simulator() { ClearLogClock(this); }

EventId Simulator::Schedule(Duration delay, std::function<void()> fn) {
  if (delay < 0) delay = 0;
  return ScheduleAt(now_ + delay, std::move(fn));
}

EventId Simulator::ScheduleAt(TimePoint when, std::function<void()> fn) {
  if (when < now_) when = now_;
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].queued = true;
  queue_.push(Event{when, next_seq_++, slot, std::move(fn)});
  return (static_cast<EventId>(slots_[slot].generation) << 32) | slot;
}

void Simulator::Cancel(EventId id) {
  uint64_t slot = id & 0xffffffffu;
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (!s.queued || s.cancelled || s.generation != (id >> 32)) return;
  s.cancelled = true;
  ++cancelled_queued_;
}

bool Simulator::ReleaseSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  bool cancelled = s.cancelled;
  if (cancelled) --cancelled_queued_;
  s.queued = false;
  s.cancelled = false;
  if (++s.generation == 0) s.generation = 1;
  free_slots_.push_back(slot);
  return cancelled;
}

bool Simulator::Step() {
  while (!queue_.empty()) {
    Event ev = queue_.top();
    queue_.pop();
    if (ReleaseSlot(ev.slot)) continue;
    now_ = ev.when;
    ++events_executed_;
    ev.fn();
    return true;
  }
  return false;
}

void Simulator::Run() {
  stop_requested_ = false;
  while (!stop_requested_ && Step()) {
  }
}

void Simulator::RunUntil(TimePoint deadline) {
  stop_requested_ = false;
  while (!stop_requested_) {
    // Peek: skip cancelled heads without executing.
    bool executed = false;
    while (!queue_.empty()) {
      const Event& head = queue_.top();
      if (slots_[head.slot].cancelled) {
        ReleaseSlot(head.slot);
        queue_.pop();
        continue;
      }
      if (head.when > deadline) break;
      Event ev = queue_.top();
      queue_.pop();
      ReleaseSlot(ev.slot);
      now_ = ev.when;
      ++events_executed_;
      ev.fn();
      executed = true;
      break;
    }
    if (!executed) break;
  }
  if (now_ < deadline) now_ = deadline;
}

void PeriodicTask::Start() { StartAfter(period_); }

void PeriodicTask::StartAfter(Duration initial_delay) {
  if (running_) return;
  running_ = true;
  pending_ = sim_->Schedule(initial_delay, [this] { Fire(); });
}

void PeriodicTask::Stop() {
  if (!running_) return;
  running_ = false;
  sim_->Cancel(pending_);
  pending_ = 0;
}

void PeriodicTask::Fire() {
  if (!running_) return;
  pending_ = sim_->Schedule(period_, [this] { Fire(); });
  fn_();
}

}  // namespace replidb::sim
