// Timing wrappers for the CCA layer. Each wrapper is registered in
// CcaRegistry under "timed-<name>" with a placement recipe, so the
// FlowTable lays it (and the real controller behind it) inside the flow's
// slab exactly as it lays the real controller. Every CongestionController
// callback is timed with steady_clock and delegated unchanged; the queries
// (cwnd, pacing_rate, ...) are delegated untimed. The real controller is
// built from the same Rng, so a run with wrapped CCAs simulates exactly
// what the plain run simulates: run.py checks that per run.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace perfbench {

enum Callback : int {
  kOnAck,
  kOnCongestionEvent,
  kOnRecoveryExit,
  kOnRto,
  kOnPacketSent,
  kCallbackCount,
};

inline constexpr std::array<const char*, kCallbackCount> kCallbackNames = {
    "on_ack", "on_congestion_event", "on_recovery_exit", "on_rto",
    "on_packet_sent"};

struct CallbackTotals {
  std::array<uint64_t, kCallbackCount> calls{};
  std::array<uint64_t, kCallbackCount> ns{};
};

// Registers "timed-newreno", "timed-cubic" and "timed-bbr". Idempotent.
void register_timed_ccas();

// The registry name of the wrapper around `cca`.
[[nodiscard]] std::string timed_name(const std::string& cca);

// Sums every thread's counters since the last reset. Call only while no
// simulation is running.
[[nodiscard]] CallbackTotals collect_callback_totals();
void reset_callback_totals();

}  // namespace perfbench
