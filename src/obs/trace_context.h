// Causal trace identity for decision provenance.
//
// A TraceContext is created at every ingress (plugin hooks, the DLP
// appliance, or DecisionEngine::decide for a caller without one) and
// propagated explicitly through the decision path. It carries a 64-bit
// trace id shared by every flight-recorder record of one causal flow, and a
// head-sampling bit decided once at trace start.
#pragma once

#include <cstdint>

namespace bf::obs {

struct TraceContext {
  std::uint64_t traceId = 0;  ///< 0 = no trace (invalid context)
  bool sampled = false;       ///< head-sampling verdict, fixed at start()

  [[nodiscard]] bool valid() const noexcept { return traceId != 0; }

  /// Fresh root trace. The trace id is a mixed monotonic counter (never 0);
  /// every traceSampleEvery()-th root is head-sampled.
  [[nodiscard]] static TraceContext start() noexcept;
};

/// Head-sampling period for TraceContext::start(): 1 keeps every trace,
/// 0 keeps none, N keeps every Nth. Process-wide; default 16.
void setTraceSampleEvery(std::uint32_t every) noexcept;
[[nodiscard]] std::uint32_t traceSampleEvery() noexcept;

namespace detail {
/// The thread's installed trace context; exposed so currentTrace() — read
/// on stage-timer hot paths — inlines. Treat as private to this header.
extern thread_local TraceContext t_currentTrace;
}  // namespace detail

/// The calling thread's ambient trace context (invalid if none installed).
[[nodiscard]] inline const TraceContext& currentTrace() noexcept {
  return detail::t_currentTrace;
}

/// Installs `ctx` as the thread's ambient trace for the scope's lifetime,
/// restoring the previous context on destruction.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx) noexcept;
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

/// The context to install at an ingress: the ambient trace when one exists
/// (e.g. the per-field decisions of one intercepted XHR upload), otherwise
/// a fresh root.
[[nodiscard]] TraceContext ingressTrace() noexcept;

}  // namespace bf::obs
