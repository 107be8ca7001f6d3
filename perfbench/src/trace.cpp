#include "trace.hpp"

#include <fstream>

namespace perfbench {

Tracer::Tracer(bool enabled, std::size_t max_spans)
    : enabled_(enabled),
      max_spans_(max_spans),
      epoch_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::Scope::Scope(Tracer* t, std::uint32_t name) : t_(t) {
  if (t_ == nullptr) return;
  const std::int64_t parent =
      t_->stack_.empty() ? -1 : t_->stack_.back().stored;
  std::int64_t stored = -1;
  const std::int64_t start = t_->now_ns();
  if (t_->spans_.size() < t_->max_spans_) {
    stored = static_cast<std::int64_t>(t_->spans_.size());
    t_->spans_.push_back(Span{name, start, start, 0, parent, t_->request_});
  } else {
    ++t_->dropped_;
  }
  t_->stack_.push_back(Open{name, start, 0, stored});
}

Tracer::Scope::~Scope() {
  if (t_ != nullptr) t_->close();
}

Tracer::Scope Tracer::span(const std::string& name) {
  if (!enabled_) return Scope(nullptr, 0);
  auto it = name_ids_.find(name);
  if (it == name_ids_.end()) {
    it = name_ids_.emplace(name, static_cast<std::uint32_t>(names_.size()))
             .first;
    names_.push_back(name);
  }
  return Scope(this, it->second);
}

void Tracer::close() {
  const Open o = stack_.back();
  stack_.pop_back();
  const std::int64_t end = now_ns();
  const std::int64_t dur = end - o.start_ns;
  const std::int64_t self = dur - o.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (o.stored >= 0) {
    Span& s = spans_[static_cast<std::size_t>(o.stored)];
    s.end_ns = end;
    s.self_ns = self;
  }
  Totals& t = totals_[names_[o.name]];
  ++t.count;
  t.total_ns += dur;
  t.self_ns += self;
}

double Tracer::self_ms(const std::string& name) const {
  auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : static_cast<double>(it->second.self_ns) * 1e-6;
}

double Tracer::total_ms(const std::string& name) const {
  auto it = totals_.find(name);
  return it == totals_.end() ? 0.0
                             : static_cast<double>(it->second.total_ns) * 1e-6;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream os(path);
  os << "{\"names\":[";
  for (std::size_t i = 0; i < names_.size(); ++i) {
    os << (i ? "," : "") << '"' << names_[i] << '"';
  }
  os << "],\"dropped\":" << dropped_ << ",\"totals\":{";
  bool first = true;
  for (const auto& [name, t] : totals_) {
    os << (first ? "" : ",") << '"' << name << "\":{\"count\":" << t.count
       << ",\"total_ns\":" << t.total_ns << ",\"self_ns\":" << t.self_ns
       << '}';
    first = false;
  }
  // One span per row: [name, start_ns, end_ns, self_ns, parent, request].
  os << "},\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << '[' << s.name << ',' << s.start_ns << ','
       << s.end_ns << ',' << s.self_ns << ',' << s.parent << ','
       << s.request << ']';
  }
  os << "]}\n";
}

}  // namespace perfbench
