#ifndef TOPK_SORT_LOSER_TREE_H_
#define TOPK_SORT_LOSER_TREE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace topk {

/// Classic tree-of-losers selection tree over `ways` input ways, the
/// workhorse of external merge sort (Knuth Vol. 3). The tree stores loser
/// indices in internal nodes and the overall winner at the root; replacing
/// the winner costs one leaf-to-root path of comparisons (log2(ways)), not
/// the 2*log2 of a binary heap.
///
/// The tree does not know what the ways hold: the owner supplies a
/// comparison over way indices. Exhausted ways must compare as losing to
/// every non-exhausted way (the owner encodes the "infinity sentinel").
///
/// `Less` is the comparison's type, so each merge instantiates the tree for
/// its own comparator and every tournament match is a direct, inlinable
/// call. `less(a, b)` returns true when way `a`'s current item sorts
/// strictly before way `b`'s. It must be a total preorder; ties may be
/// broken by way index for stability.
template <typename Less>
class LoserTree {
 public:
  LoserTree(size_t ways, Less less) : ways_(ways), less_(std::move(less)) {
    TOPK_CHECK(ways_ > 0) << "loser tree needs at least one way";
    tree_.assign(ways_ < 2 ? 1 : ways_, 0);
  }

  /// (Re)builds the tree from the ways' current items. O(ways) comparisons.
  void Build() {
    if (ways_ == 1) {
      winner_ = 0;
      return;
    }
    // Bottom-up build: run a knockout tournament. Node i has children that
    // are either leaves (way indices) or other internal nodes' winners.
    // We compute winners for all internal nodes, storing losers in tree_.
    std::vector<size_t> winners(2 * ways_);
    for (size_t i = 0; i < ways_; ++i) winners[ways_ + i] = i;
    for (size_t node = ways_ - 1; node >= 1; --node) {
      const size_t a = winners[2 * node];
      const size_t b = winners[2 * node + 1];
      if (less_(b, a)) {
        winners[node] = b;
        tree_[node] = a;
      } else {
        winners[node] = a;
        tree_[node] = b;
      }
    }
    winner_ = winners[1];
  }

  /// Index of the winning way.
  size_t winner() const { return winner_; }

  /// Call after the winner's way advanced to its next item (or became
  /// exhausted): replays the winner's path. O(log ways).
  void ReplayWinner() {
    if (ways_ == 1) return;
    size_t node = (ways_ + winner_) / 2;
    size_t current = winner_;
    while (node >= 1) {
      const size_t opponent = tree_[node];
      if (less_(opponent, current)) {
        tree_[node] = current;
        current = opponent;
      }
      node /= 2;
    }
    winner_ = current;
  }

  size_t ways() const { return ways_; }

 private:
  size_t ways_;
  Less less_;
  /// tree_[1..ways_-1] hold loser way indices; tree_[0] unused.
  std::vector<size_t> tree_;
  size_t winner_ = 0;
};

}  // namespace topk

#endif  // TOPK_SORT_LOSER_TREE_H_
