// Indexed binary min-heap over a dense id space, keyed by double.
//
// The event kernel keeps one entry per service group: the key is the
// group's earliest candidate completion time. Updating a group's key on a
// rate epoch is O(log G) where G is the number of groups — the heart of
// the incremental scheduler that replaced the per-event O(live peers)
// rate rescan. Ties are broken by a per-id tie value — the id itself
// unless the caller supplies one (MFCD's wakes use the user's admission
// sequence, which survives row recycling) — so the pop order (and
// therefore the whole simulation) is deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "btmf/util/check.h"

namespace btmf::sim {

class IndexedMinHeap {
 public:
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  /// Grows the id space to `n`; new ids start absent from the heap.
  void resize(std::size_t n) {
    BTMF_ASSERT(n >= pos_.size());
    pos_.resize(n, npos);
    key_.resize(n, 0.0);
    tie_.resize(n, 0);
  }

  [[nodiscard]] std::size_t id_capacity() const { return pos_.size(); }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] bool contains(std::size_t id) const {
    return pos_[id] != npos;
  }
  [[nodiscard]] double key_of(std::size_t id) const { return key_[id]; }

  [[nodiscard]] std::size_t top_id() const { return heap_.front(); }
  [[nodiscard]] double top_key() const { return key_[heap_.front()]; }

  /// Inserts `id` or changes its key, restoring the heap order; equal
  /// keys pop in ascending id order.
  void set(std::size_t id, double key) { set(id, key, id); }

  /// As set(id, key), but equal keys pop in ascending `tie` order. Tie
  /// values must be distinct among the ids present at once.
  void set(std::size_t id, double key, std::uint64_t tie) {
    if (pos_[id] == npos) {
      key_[id] = key;
      tie_[id] = tie;
      pos_[id] = heap_.size();
      heap_.push_back(id);
      sift_up(pos_[id]);
    } else {
      const double old = key_[id];
      const std::uint64_t old_tie = tie_[id];
      key_[id] = key;
      tie_[id] = tie;
      if (key < old || (key == old && tie < old_tie)) {
        sift_up(pos_[id]);
      } else {
        sift_down(pos_[id]);
      }
    }
  }

  void erase(std::size_t id) {
    const std::size_t at = pos_[id];
    if (at == npos) return;
    const std::size_t last = heap_.size() - 1;
    if (at != last) {
      heap_[at] = heap_[last];
      pos_[heap_[at]] = at;
    }
    heap_.pop_back();
    pos_[id] = npos;
    if (at < heap_.size()) {
      sift_up(at);
      sift_down(at);
    }
  }

  /// Paranoid-auditor hook: verifies the heap property and the pos_/heap_
  /// cross-references. Returns false (with a reason) instead of throwing
  /// so the caller can attach context. O(n).
  [[nodiscard]] bool validate(std::string* reason = nullptr) const {
    const auto fail = [&](const char* why) {
      if (reason != nullptr) *reason = why;
      return false;
    };
    std::size_t present = 0;
    for (std::size_t id = 0; id < pos_.size(); ++id) {
      if (pos_[id] == npos) continue;
      ++present;
      if (pos_[id] >= heap_.size() || heap_[pos_[id]] != id) {
        return fail("pos_/heap_ cross-reference broken");
      }
    }
    if (present != heap_.size()) return fail("heap size != live id count");
    for (std::size_t i = 1; i < heap_.size(); ++i) {
      if (before(heap_[i], heap_[(i - 1) / 2])) {
        return fail("heap order violated");
      }
    }
    return true;
  }

 private:
  /// (key, tie) lexicographic order makes the heap a strict weak order
  /// even when many ids share a key (e.g. +infinity).
  [[nodiscard]] bool before(std::size_t a, std::size_t b) const {
    return key_[a] < key_[b] || (key_[a] == key_[b] && tie_[a] < tie_[b]);
  }

  void sift_up(std::size_t i) {
    while (i > 0) {
      const std::size_t p = (i - 1) / 2;
      if (!before(heap_[i], heap_[p])) break;
      std::swap(heap_[i], heap_[p]);
      pos_[heap_[i]] = i;
      pos_[heap_[p]] = p;
      i = p;
    }
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    while (true) {
      std::size_t best = i;
      const std::size_t l = 2 * i + 1;
      const std::size_t r = 2 * i + 2;
      if (l < n && before(heap_[l], heap_[best])) best = l;
      if (r < n && before(heap_[r], heap_[best])) best = r;
      if (best == i) break;
      std::swap(heap_[i], heap_[best]);
      pos_[heap_[i]] = i;
      pos_[heap_[best]] = best;
      i = best;
    }
  }

  std::vector<std::size_t> heap_;  ///< heap of ids
  std::vector<std::size_t> pos_;   ///< id -> heap slot, npos when absent
  std::vector<double> key_;        ///< id -> key
  std::vector<std::uint64_t> tie_; ///< id -> tie-break value
};

}  // namespace btmf::sim
