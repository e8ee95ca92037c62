#include "perfbench/src/timed_cca.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>

#include "src/cca/cca.h"

namespace perfbench {
namespace {

using ccas::AckEvent;
using ccas::CcaPlacement;
using ccas::CcaRegistry;
using ccas::CongestionController;
using ccas::DataRate;
using ccas::Rng;
using ccas::Time;

// One counter block per thread (sweep workers run CCAs concurrently); the
// blocks outlive their threads so totals can be read after the join.
std::mutex g_slots_mu;
std::deque<CallbackTotals> g_slots;  // guarded by g_slots_mu

CallbackTotals& local_totals() {
  thread_local CallbackTotals* slot = nullptr;
  if (slot == nullptr) {
    std::lock_guard<std::mutex> lock(g_slots_mu);
    slot = &g_slots.emplace_back();
  }
  return *slot;
}

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Timed {
 public:
  explicit Timed(Callback cb) : cb_(cb), start_(now_ns()) {}
  ~Timed() {
    const uint64_t end = now_ns();
    CallbackTotals& t = local_totals();
    ++t.calls[cb_];
    t.ns[cb_] += end - start_;
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Callback cb_;
  uint64_t start_;
};

class TimedCca final : public CongestionController {
 public:
  // `inner` is either heap-owned (factory path) or placement-constructed
  // right behind this object in the flow's slab.
  TimedCca(CongestionController* inner, bool heap_owned)
      : inner_(inner), heap_owned_(heap_owned) {}
  ~TimedCca() override {
    if (heap_owned_) {
      delete inner_;
    } else {
      inner_->~CongestionController();
    }
  }
  TimedCca(const TimedCca&) = delete;
  TimedCca& operator=(const TimedCca&) = delete;

  void on_ack(const AckEvent& ack) override {
    Timed t(kOnAck);
    inner_->on_ack(ack);
  }
  void on_congestion_event(Time now, uint64_t inflight) override {
    Timed t(kOnCongestionEvent);
    inner_->on_congestion_event(now, inflight);
  }
  void on_recovery_exit(Time now, uint64_t inflight) override {
    Timed t(kOnRecoveryExit);
    inner_->on_recovery_exit(now, inflight);
  }
  void on_rto(Time now) override {
    Timed t(kOnRto);
    inner_->on_rto(now);
  }
  void on_packet_sent(Time now, uint64_t seq, uint64_t inflight) override {
    Timed t(kOnPacketSent);
    inner_->on_packet_sent(now, seq, inflight);
  }

  [[nodiscard]] uint64_t cwnd() const override { return inner_->cwnd(); }
  [[nodiscard]] DataRate pacing_rate() const override {
    return inner_->pacing_rate();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] uint64_t ssthresh() const override { return inner_->ssthresh(); }
  [[nodiscard]] bool owns_recovery_cwnd() const override {
    return inner_->owns_recovery_cwnd();
  }

 private:
  CongestionController* inner_;
  bool heap_owned_;
};

constexpr std::array<const char*, 3> kWrapped = {"newreno", "cubic", "bbr"};
std::array<CcaPlacement, kWrapped.size()> g_inner{};

size_t inner_offset(const CcaPlacement& inner) {
  const size_t a = inner.align;
  return (sizeof(TimedCca) + a - 1) / a * a;
}

template <size_t I>
CongestionController* construct_timed(void* mem, Rng& rng) {
  const CcaPlacement& inner = g_inner[I];
  CongestionController* real =
      inner.construct(static_cast<unsigned char*>(mem) + inner_offset(inner), rng);
  return new (mem) TimedCca(real, /*heap_owned=*/false);
}

template <size_t I>
void register_one() {
  CcaRegistry& registry = CcaRegistry::instance();
  const std::string name = kWrapped[I];
  const CcaPlacement* inner = registry.placement(name);
  if (inner == nullptr) {
    throw std::logic_error("perfbench: CCA '" + name + "' has no placement recipe");
  }
  g_inner[I] = *inner;
  CcaPlacement timed;
  timed.size = inner_offset(*inner) + inner->size;
  timed.align = std::max(alignof(TimedCca), inner->align);
  timed.construct = &construct_timed<I>;
  registry.register_cca(
      timed_name(name),
      [name](Rng& rng) -> std::unique_ptr<CongestionController> {
        return std::make_unique<TimedCca>(ccas::make_cca(name, rng).release(),
                                          /*heap_owned=*/true);
      },
      timed);
}

}  // namespace

std::string timed_name(const std::string& cca) { return "timed-" + cca; }

void register_timed_ccas() {
  static std::once_flag once;
  std::call_once(once, [] {
    register_one<0>();
    register_one<1>();
    register_one<2>();
  });
}

CallbackTotals collect_callback_totals() {
  std::lock_guard<std::mutex> lock(g_slots_mu);
  CallbackTotals sum;
  for (const CallbackTotals& t : g_slots) {
    for (int i = 0; i < kCallbackCount; ++i) {
      sum.calls[i] += t.calls[i];
      sum.ns[i] += t.ns[i];
    }
  }
  return sum;
}

void reset_callback_totals() {
  std::lock_guard<std::mutex> lock(g_slots_mu);
  for (CallbackTotals& t : g_slots) t = CallbackTotals{};
}

}  // namespace perfbench
