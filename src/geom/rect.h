/// \file rect.h
/// Axis-parallel integer rectangles (bounding boxes of nets, search windows).

#pragma once

#include <algorithm>
#include <limits>

#include "geom/point.h"

namespace cdst {

struct Rect {
  std::int32_t xlo{std::numeric_limits<std::int32_t>::max()};
  std::int32_t ylo{std::numeric_limits<std::int32_t>::max()};
  std::int32_t xhi{std::numeric_limits<std::int32_t>::min()};
  std::int32_t yhi{std::numeric_limits<std::int32_t>::min()};

  bool empty() const { return xlo > xhi || ylo > yhi; }

  std::int64_t width() const {
    return empty() ? 0 : static_cast<std::int64_t>(xhi) - xlo;
  }
  std::int64_t height() const {
    return empty() ? 0 : static_cast<std::int64_t>(yhi) - ylo;
  }

  /// Half-perimeter wirelength of the box (classic net-length lower bound).
  std::int64_t half_perimeter() const { return width() + height(); }

  bool contains(const Point2& p) const {
    return p.x >= xlo && p.x <= xhi && p.y >= ylo && p.y <= yhi;
  }

  void expand(const Point2& p) {
    xlo = std::min(xlo, p.x);
    ylo = std::min(ylo, p.y);
    xhi = std::max(xhi, p.x);
    yhi = std::max(yhi, p.y);
  }

  void expand(const Rect& r) {
    if (r.empty()) return;
    xlo = std::min(xlo, r.xlo);
    ylo = std::min(ylo, r.ylo);
    xhi = std::max(xhi, r.xhi);
    yhi = std::max(yhi, r.yhi);
  }

  /// Inflates the box by margin on all sides.
  Rect inflated(std::int32_t margin) const {
    Rect out = *this;
    if (out.empty()) return out;
    out.xlo -= margin;
    out.ylo -= margin;
    out.xhi += margin;
    out.yhi += margin;
    return out;
  }

  /// L1 distance from p to the box (0 if inside).
  std::int64_t l1_to(const Point2& p) const {
    const std::int64_t dx =
        std::max<std::int64_t>({0, xlo - p.x, p.x - xhi});
    const std::int64_t dy =
        std::max<std::int64_t>({0, ylo - p.y, p.y - yhi});
    return dx + dy;
  }

  friend bool operator==(const Rect&, const Rect&) = default;
};

}  // namespace cdst
