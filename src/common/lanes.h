#ifndef LIMEQO_COMMON_LANES_H_
#define LIMEQO_COMMON_LANES_H_

#include <cstring>

namespace limeqo::lanes {

/// Two double lanes (one SSE2 register), through the GCC/Clang
/// `vector_size(16)` extension. Lane-wise + - * / are the scalar IEEE
/// operations, so a lane reproduces a scalar computation exactly (the build
/// uses neither -march nor -mfma, so no product is contracted into an FMA).
/// The linalg ALS sweep and the nn layer kernels are written in them.
typedef double Vec2 __attribute__((vector_size(16)));

/// A lane-wise comparison result: all bits set where it holds.
typedef long long Mask2 __attribute__((vector_size(16)));

inline Vec2 Load2(const double* p) {
  Vec2 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline void Store2(double* p, Vec2 v) { std::memcpy(p, &v, sizeof(v)); }
inline Vec2 Splat(double x) { return Vec2{x, x}; }

/// a where the mask lane is set, else b: the lane form of `m ? a : b`.
inline Vec2 Select(Mask2 m, Vec2 a, Vec2 b) {
  return (Vec2)((m & (Mask2)a) | (~m & (Mask2)b));
}

}  // namespace limeqo::lanes

#endif  // LIMEQO_COMMON_LANES_H_
