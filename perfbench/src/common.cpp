#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <unordered_map>

namespace pb {

void Result::set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void Result::fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const usize lo = static_cast<usize>(std::floor(pos));
  const usize hi = std::min(v.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void Tracer::enable(usize reserve) {
  spans_.reserve(spans_.size() + reserve);
  on_ = true;
}

u64 Tracer::begin(const char* name, u64 op, u64 parent) {
  if (!on_) return 0;
  const u64 id = spans_.size() + 1;
  spans_.push_back({name, id, parent, op, now_ns(), 0});
  return id;
}

void Tracer::end(u64 id) {
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].end_ns = now_ns();
}

u64 Tracer::record(const char* name, u64 op, u64 parent, u64 start_ns, u64 end_ns) {
  if (!on_) return 0;
  const u64 id = spans_.size() + 1;
  spans_.push_back({name, id, parent, op, start_ns, end_ns});
  return id;
}

double Tracer::residual_pct(std::initializer_list<const char*> roots) const {
  std::unordered_map<u64, u64> child_ns;  // root id -> summed child durations
  double root_total = 0.0;
  const auto is_root = [&](const Span& s) {
    return s.parent == 0 && std::any_of(roots.begin(), roots.end(), [&](const char* root) {
             return std::strcmp(s.name, root) == 0;
           });
  };
  for (const Span& s : spans_) {
    if (is_root(s)) {
      root_total += static_cast<double>(s.end_ns - s.start_ns);
    } else if (s.parent != 0) {
      child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  if (root_total <= 0.0) return 0.0;
  double covered = 0.0;
  for (const Span& s : spans_) {
    if (!is_root(s)) continue;
    const auto it = child_ns.find(s.id);
    if (it != child_ns.end()) {
      covered += std::min(static_cast<double>(it->second),
                          static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return 100.0 * (root_total - covered) / root_total;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace pb
