#ifndef RLZ_SUFFIX_MATCHER_H_
#define RLZ_SUFFIX_MATCHER_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace rlz {

/// Result of a longest-match query: `len` characters matched starting at
/// text position `pos` (len == 0 means no character matched).
struct Match {
  int32_t pos = 0;
  int32_t len = 0;
};

/// Pattern matching over a static text via its suffix array — the engine
/// behind the paper's Factor function (Fig. 1 / Table 1). Suffixes sharing
/// a prefix form a contiguous SA interval. The paper narrows that interval
/// one character at a time (Refine); LongestMatch instead runs one
/// lower-bound search for the whole pattern that skips the bytes already
/// known to match (Manber & Myers), and returns the same match (DESIGN.md
/// §5.1).
///
/// Optionally builds a jump-start table: a dense index over the 2-byte
/// prefixes of suffixes, which replaces the first two characters of the
/// search with an O(1) lookup (ablation in bench/micro_bench; see
/// DESIGN.md §5.1).
class SuffixMatcher {
 public:
  /// `text` must outlive the matcher. If `sa` is empty it is built here.
  explicit SuffixMatcher(std::string_view text,
                         std::vector<int32_t> sa = {},
                         bool build_jump_table = true);

  /// Longest prefix of `pattern` occurring anywhere in the text, at the
  /// lowest SA rank among the suffixes that share it — exactly the SA[lb]
  /// Fig. 1 returns. Factor positions are archive bytes, so this tie rule
  /// is part of the format.
  Match LongestMatch(std::string_view pattern) const;

  std::string_view text() const { return text_; }
  const std::vector<int32_t>& sa() const { return sa_; }

 private:
  // First SA rank in (l, r) whose suffix is >= the first `plen` bytes of
  // `p`, or r if none. Ranks l and r may be one past either end of the
  // range searched; *llcp and *rlcp are the number of leading bytes the
  // suffixes at l and r share with `p` (for an end past the range: bytes
  // every suffix in between shares). Each comparison starts at the
  // smaller of the two, since every suffix between l and r shares it. On
  // return they describe the final neighbours of the returned rank.
  int32_t LowerBound(const uint8_t* p, size_t plen, int32_t l, int32_t r,
                     size_t* llcp, size_t* rlcp) const;

  std::string_view text_;
  std::vector<int32_t> sa_;
  // jump_[prefix16] = SA interval [lo, hi) of suffixes starting with the
  // two-byte prefix; empty intervals have lo == hi.
  std::vector<int32_t> jump_lo_;
  std::vector<int32_t> jump_hi_;
  bool has_jump_ = false;
};

}  // namespace rlz

#endif  // RLZ_SUFFIX_MATCHER_H_
