#pragma once
// Pool of reusable DecodeSessions for the serving layer. A DecodeSession
// owns ~(2 * layers * lanes * n * d) doubles of KV cache; constructing one
// per request means a fresh allocation + zero-init on every recommend.
// The arena keeps completed sessions and re-targets them at the next
// request's insight via DecodeSession::rebind(), which only recomputes the
// insight embedding and cross-attention K/V. Rebound sessions are bitwise
// indistinguishable from freshly constructed ones.
//
// Single-threaded by design: only the service's batcher thread touches it,
// except created() / reuses(), which counters() snapshots from any thread.

#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "align/recipe_model.h"

namespace vpr::serve {

class SessionArena {
 public:
  /// At most `capacity` sessions live at once, each with
  /// `lanes_per_session` beam lanes.
  SessionArena(const align::RecipeModel& model, int capacity,
               int lanes_per_session);

  /// A session rebound to `insight` (recycled if one is free, freshly
  /// constructed otherwise), or nullptr when all `capacity` sessions are
  /// checked out. The arena keeps ownership; hand the pointer back with
  /// release().
  [[nodiscard]] align::DecodeSession* acquire(std::span<const double> insight);
  void release(align::DecodeSession* session);

  /// Re-target the arena at a new model version (the serving hot-swap
  /// path): sessions acquired from now on decode with `model`; free
  /// sessions are re-bound lazily on acquire, and sessions currently
  /// checked out keep the weights they were acquired with until released.
  /// The architecture must match the construction-time one
  /// (DecodeSession::rebind enforces it). Like everything here, batcher-
  /// thread only.
  void set_model(const align::RecipeModel& model) noexcept {
    model_ = &model;
  }
  [[nodiscard]] const align::RecipeModel& model() const noexcept {
    return *model_;
  }

  [[nodiscard]] int capacity() const noexcept { return capacity_; }
  [[nodiscard]] int lanes_per_session() const noexcept { return lanes_; }
  [[nodiscard]] int in_use() const noexcept { return in_use_; }
  /// Sessions constructed from scratch (allocation + zero-init).
  [[nodiscard]] long created() const noexcept { return created_; }
  /// acquire() calls served by rebinding an existing session.
  [[nodiscard]] long reuses() const noexcept { return reuses_; }

 private:
  const align::RecipeModel* model_;
  int capacity_;
  int lanes_;
  int in_use_ = 0;
  std::atomic<long> created_{0};
  std::atomic<long> reuses_{0};
  std::vector<std::unique_ptr<align::DecodeSession>> pool_;
  std::vector<align::DecodeSession*> free_;
};

}  // namespace vpr::serve
