// In-memory span recorder for the traced run.
//
// A span wraps one public call the harness makes into a library module.
// Names are "<module>.<function>" (rewrite.expand_dfts, backend.lower_fused,
// ...). Spans are recorded on the harness thread only, so they nest
// properly: a span's self time is its duration minus the time its child
// spans cover. Spans are kept in memory (up to a cap; per-name totals are
// exact regardless) and written out once at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;  ///< index into names()
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t self_ns = 0;
    std::int64_t parent = -1;  ///< index of the enclosing span, -1 if none
    std::int64_t request = -1;
  };
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  /// A disabled tracer records nothing and costs one branch per span.
  explicit Tracer(bool enabled, std::size_t max_spans = std::size_t{1} << 17);

  /// Closes its span on destruction.
  class Scope {
   public:
    Scope(Tracer* t, std::uint32_t name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
  };

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Request id stamped on spans opened from now on.
  void set_request(std::int64_t id) noexcept { request_ = id; }
  /// Opens a span; keep the returned scope alive for the call's duration.
  [[nodiscard]] Scope span(const std::string& name);
  /// A span only when `on`; otherwise an inert scope.
  [[nodiscard]] Scope span_if(bool on, const std::string& name) {
    return on ? span(name) : Scope(nullptr, 0);
  }
  /// Spans closed so far, over all names.
  [[nodiscard]] std::uint64_t total_count() const {
    std::uint64_t c = 0;
    for (const auto& [name, t] : totals_) c += t.count;
    return c;
  }

  /// Per-name totals over every closed span.
  [[nodiscard]] const std::map<std::string, Totals>& totals() const {
    return totals_;
  }
  /// Total self time of spans named `name`, in milliseconds (0 if none).
  [[nodiscard]] double self_ms(const std::string& name) const;
  /// Total duration of spans named `name`, in milliseconds (0 if none).
  [[nodiscard]] double total_ms(const std::string& name) const;

  /// Counters recorded at the same boundaries as the spans.
  void add(const std::string& counter, double v) { counters_[counter] += v; }
  [[nodiscard]] double counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Writes spans and per-name totals as JSON.
  void write_json(const std::string& path) const;

 private:
  struct Open {
    std::uint32_t name;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int64_t stored;  ///< index in spans_, -1 when over the cap
  };

  [[nodiscard]] std::int64_t now_ns() const;
  void close();

  bool enabled_;
  std::size_t max_spans_;
  std::chrono::steady_clock::time_point epoch_;
  std::int64_t request_ = -1;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> name_ids_;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  std::map<std::string, Totals> totals_;
  std::map<std::string, double> counters_;
  std::uint64_t dropped_ = 0;
};

}  // namespace perfbench
