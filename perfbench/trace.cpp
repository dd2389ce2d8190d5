#include <cstdio>
#include <cstring>

#include "bench.hpp"

namespace perfbench {

Tracer::Tracer(bool enabled, std::string trace_id)
    : enabled_(enabled), trace_id_(std::move(trace_id)), t0_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
}

Tracer::Scope::Scope(Tracer* t, const char* name, const char* layer) : t_(t) {
  if (!t_) return;
  const std::int32_t parent = t_->open_.empty() ? -1 : t_->open_.back();
  id_ = static_cast<std::int32_t>(t_->spans_.size());
  const std::int32_t root = parent < 0 ? id_ : t_->spans_[parent].root;
  t_->spans_.push_back(Span{name, layer, parent, root, t_->now_us(), 0.0});
  t_->open_.push_back(id_);
}

Tracer::Scope::~Scope() {
  if (!t_) return;
  t_->spans_[id_].end_us = t_->now_us();
  t_->open_.pop_back();
}

double Tracer::self_us(std::int32_t root, const char* layer) const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_us[s.parent] += s.end_us - s.start_us;
  }
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.root == root && std::strcmp(s.layer, layer) == 0) {
      total += (s.end_us - s.start_us) - child_us[i];
    }
  }
  return total;
}

std::int32_t Tracer::find_root(const char* name) const {
  for (std::size_t i = spans_.size(); i-- > 0;) {
    if (spans_[i].parent < 0 && std::strcmp(spans_[i].name, name) == 0) {
      return static_cast<std::int32_t>(i);
    }
  }
  return -1;
}

std::vector<double> Tracer::durations_us(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) out.push_back(s.end_us - s.start_us);
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"trace_id\":\"%s\",\"spans\":[", trace_id_.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"id\":%zu,\"parent\":%d,\"name\":\"%s\",\"layer\":\"%s\","
                 "\"start_us\":%.3f,\"end_us\":%.3f}",
                 i ? "," : "", i, s.parent, s.name, s.layer, s.start_us,
                 s.end_us);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
