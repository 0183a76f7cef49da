#include "obs/profile.h"

namespace sj::obs {

void PhaseProfile::merge(const PhaseProfile& o) {
  frames += o.frames;
  reset_ns += o.reset_ns;
  encode_ns += o.encode_ns;
  exec_ns += o.exec_ns;
  frame_ns += o.frame_ns;
}

void PhaseProfile::clear() { *this = PhaseProfile{}; }

json::Value PhaseProfile::to_json() const {
  json::Value v;
  v.set("frames", frames);
  v.set("reset_ns", static_cast<i64>(reset_ns));
  v.set("encode_ns", static_cast<i64>(encode_ns));
  v.set("exec_ns", static_cast<i64>(exec_ns));
  v.set("frame_ns", static_cast<i64>(frame_ns));
  return v;
}

}  // namespace sj::obs
