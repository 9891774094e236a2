#ifndef REPLIDB_SIM_SIMULATOR_H_
#define REPLIDB_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace replidb::sim {

/// Simulated time in microseconds since experiment start.
using TimePoint = int64_t;
/// Simulated duration in microseconds.
using Duration = int64_t;

constexpr Duration kMicrosecond = 1;
constexpr Duration kMillisecond = 1000;
constexpr Duration kSecond = 1000 * 1000;
constexpr Duration kMinute = 60 * kSecond;
constexpr Duration kHour = 60 * kMinute;
constexpr Duration kDay = 24 * kHour;

/// Converts simulated time to seconds as a double (for reporting).
inline double ToSeconds(Duration d) { return static_cast<double>(d) / kSecond; }
/// Converts simulated time to milliseconds as a double (for reporting).
inline double ToMillis(Duration d) { return static_cast<double>(d) / kMillisecond; }

/// Handle for cancelling a scheduled event: the event's slot in the low
/// 32 bits and the slot's generation (never 0) in the high 32, so 0 is
/// never a valid id and a stale id never matches a reused slot.
using EventId = uint64_t;

/// \brief Deterministic discrete-event simulator.
///
/// All components of the testbed (network, engines, middleware, workload
/// generators, fault injectors) run on a single Simulator: they schedule
/// callbacks at future virtual times and the simulator executes them in
/// (time, insertion-order) order. Experiments are thus fully deterministic —
/// the same seed always produces the same trace — and simulate hours of
/// cluster time in milliseconds of wall time.
class Simulator {
 public:
  /// Construction registers this simulator as the process log clock (log
  /// lines get a virtual-time prefix); destruction unregisters it.
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  TimePoint Now() const { return now_; }

  /// Schedules `fn` to run `delay` after Now(). Negative delays clamp to 0.
  EventId Schedule(Duration delay, std::function<void()> fn);

  /// Schedules `fn` at absolute virtual time `when` (clamped to Now()).
  EventId ScheduleAt(TimePoint when, std::function<void()> fn);

  /// Cancels a pending event; no-op (leaving no state behind) if the id
  /// already fired, was cancelled, or was never issued.
  void Cancel(EventId id);

  /// Runs events until the queue is empty or `StopRequested`.
  void Run();

  /// Runs events with time <= `deadline`, then sets Now() to `deadline`
  /// (if the queue drained earlier). Pending later events remain queued.
  void RunUntil(TimePoint deadline);

  /// Convenience: RunUntil(Now() + d).
  void RunFor(Duration d) { RunUntil(now_ + d); }

  /// Executes the single next event. Returns false if the queue is empty.
  bool Step();

  /// Requests Run()/RunUntil() to return after the current event.
  void RequestStop() { stop_requested_ = true; }

  /// Number of events executed so far (for sanity checks in tests).
  uint64_t events_executed() const { return events_executed_; }

  /// Number of events currently pending.
  size_t pending_events() const { return queue_.size() - cancelled_queued_; }

 private:
  struct Event {
    TimePoint when;
    uint64_t seq;  // Tie-breaker: FIFO among same-time events.
    uint32_t slot;
    std::function<void()> fn;
  };
  /// State of one event id while its event sits in the queue. A slot is
  /// recycled when its event leaves the queue, fired or skipped.
  struct Slot {
    uint32_t generation = 1;
    bool queued = false;
    bool cancelled = false;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  /// Frees the slot of an event that just left the queue; true when the
  /// event had been cancelled (skip it).
  bool ReleaseSlot(uint32_t slot);

  TimePoint now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t events_executed_ = 0;
  bool stop_requested_ = false;
  std::priority_queue<Event, std::vector<Event>, EventLater> queue_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  size_t cancelled_queued_ = 0;  ///< Cancelled events still in queue_.
};

/// \brief Repeating task helper (heartbeats, pollers, batch shippers).
///
/// Reschedules itself every `period` until Stop() is called or the owning
/// simulator drains. The callback may call Stop() on its own task.
class PeriodicTask {
 public:
  PeriodicTask(Simulator* sim, Duration period, std::function<void()> fn)
      : sim_(sim), period_(period), fn_(std::move(fn)) {}
  ~PeriodicTask() { Stop(); }
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  /// Schedules the first firing `period` from now (or `initial_delay`).
  void Start();
  void StartAfter(Duration initial_delay);

  /// Cancels any pending firing.
  void Stop();

  bool running() const { return running_; }

 private:
  void Fire();

  Simulator* sim_;
  Duration period_;
  std::function<void()> fn_;
  bool running_ = false;
  EventId pending_ = 0;
};

}  // namespace replidb::sim

#endif  // REPLIDB_SIM_SIMULATOR_H_
