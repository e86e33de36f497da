#include "obs/trace_context.h"

#include <atomic>

#include "util/hashing.h"

namespace bf::obs {
namespace {

std::atomic<std::uint64_t> g_nextTraceSeed{1};
std::atomic<std::uint32_t> g_sampleEvery{16};

}  // namespace

namespace detail {
thread_local TraceContext t_currentTrace;
}  // namespace detail

TraceContext TraceContext::start() noexcept {
  const std::uint64_t seed =
      g_nextTraceSeed.fetch_add(1, std::memory_order_relaxed);
  TraceContext ctx;
  // mix64 is a bijection mapping only 0 to 0, so seeds >= 1 always yield a
  // nonzero (i.e. valid) trace id.
  ctx.traceId = util::mix64(seed);
  const std::uint32_t every = g_sampleEvery.load(std::memory_order_relaxed);
  ctx.sampled = every != 0 && seed % every == 0;
  return ctx;
}

void setTraceSampleEvery(std::uint32_t every) noexcept {
  g_sampleEvery.store(every, std::memory_order_relaxed);
}

std::uint32_t traceSampleEvery() noexcept {
  return g_sampleEvery.load(std::memory_order_relaxed);
}

ScopedTraceContext::ScopedTraceContext(const TraceContext& ctx) noexcept
    : saved_(detail::t_currentTrace) {
  detail::t_currentTrace = ctx;
}

ScopedTraceContext::~ScopedTraceContext() { detail::t_currentTrace = saved_; }

TraceContext ingressTrace() noexcept {
  const TraceContext& current = detail::t_currentTrace;
  return current.valid() ? current : TraceContext::start();
}

}  // namespace bf::obs
