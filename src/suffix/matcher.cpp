#include "suffix/matcher.h"

#include <algorithm>

#include "suffix/suffix_array.h"
#include "util/common_prefix.h"
#include "util/logging.h"

namespace rlz {

SuffixMatcher::SuffixMatcher(std::string_view text, std::vector<int32_t> sa,
                             bool build_jump_table)
    : text_(text), sa_(std::move(sa)) {
  if (sa_.empty() && !text_.empty()) {
    sa_ = BuildSuffixArray(text_);
  }
  RLZ_CHECK_EQ(sa_.size(), text_.size());
  if (build_jump_table && text_.size() >= 2) {
    jump_lo_.assign(65536, 0);
    jump_hi_.assign(65536, 0);
    // One pass over the SA: suffixes with equal 2-byte prefixes are
    // contiguous, so record each run. Suffixes of length 1 sort at the
    // start of their first-byte group and are excluded from the table
    // (a one-byte match falls back to a search of the whole array).
    size_t i = 0;
    const size_t n = sa_.size();
    while (i < n) {
      const size_t start = i;
      const size_t p = static_cast<size_t>(sa_[i]);
      if (p + 1 >= text_.size()) {
        ++i;
        continue;
      }
      const uint32_t key = (static_cast<uint8_t>(text_[p]) << 8) |
                           static_cast<uint8_t>(text_[p + 1]);
      while (i < n) {
        const size_t q = static_cast<size_t>(sa_[i]);
        if (q + 1 >= text_.size()) break;
        const uint32_t k2 = (static_cast<uint8_t>(text_[q]) << 8) |
                            static_cast<uint8_t>(text_[q + 1]);
        if (k2 != key) break;
        ++i;
      }
      jump_lo_[key] = static_cast<int32_t>(start);
      jump_hi_[key] = static_cast<int32_t>(i);
    }
    has_jump_ = true;
  }
}

int32_t SuffixMatcher::LowerBound(const uint8_t* p, size_t plen, int32_t l,
                                  int32_t r, size_t* llcp,
                                  size_t* rlcp) const {
  const uint8_t* text = reinterpret_cast<const uint8_t*>(text_.data());
  const size_t n = text_.size();
  while (r - l > 1) {
    const int32_t mid = l + (r - l) / 2;
    const size_t start = static_cast<size_t>(sa_[mid]);
    const size_t avail = n - start;
    const size_t m = CommonPrefixLength(
        text + start, p, std::min(*llcp, *rlcp), std::min(plen, avail));
    // The suffix sorts at or after the pattern if it contains the whole
    // pattern or its first differing byte is larger; a suffix that ends
    // first sorts before.
    if (m == plen || (m < avail && text[start + m] > p[m])) {
      r = mid;
      *rlcp = m;
    } else {
      l = mid;
      *llcp = m;
    }
  }
  return r;
}

Match SuffixMatcher::LongestMatch(std::string_view pattern) const {
  Match m;
  if (pattern.empty() || text_.empty()) return m;
  const uint8_t* p = reinterpret_cast<const uint8_t*>(pattern.data());
  size_t plen = pattern.size();

  // Search interval [lo, hi) of ranks whose suffixes share the first
  // `known` bytes of the pattern.
  int32_t lo = 0;
  int32_t hi = static_cast<int32_t>(sa_.size());
  size_t known = 0;
  if (has_jump_ && plen >= 2) {
    const uint32_t key = (static_cast<uint32_t>(p[0]) << 8) | p[1];
    if (jump_lo_[key] < jump_hi_[key]) {
      lo = jump_lo_[key];
      hi = jump_hi_[key];
      known = 2;
    } else {
      // No suffix starts with these two bytes: at most one byte matches.
      plen = 1;
    }
  }

  // The suffixes sharing the most bytes with the pattern sit next to its
  // insertion point r: rank r - 1 shares llcp bytes, rank r shares rlcp.
  size_t llcp = known;
  size_t rlcp = known;
  const int32_t r = LowerBound(p, plen, lo - 1, hi, &llcp, &rlcp);
  const size_t left = r > lo ? llcp : 0;
  const size_t right = r < hi ? rlcp : 0;
  const size_t len = std::max(left, right);
  if (len == 0) return m;

  int32_t rank = r;
  if (left == len) {
    // Rank r - 1 reaches the longest match; Fig. 1 reports the lowest rank
    // that does. Runs of suffixes sharing the match are short, so gallop
    // left from r - 1 for a rank that falls short, then binary-search the
    // last step.
    const uint8_t* text = reinterpret_cast<const uint8_t*>(text_.data());
    auto shared = [&](int32_t i) {
      const size_t start = static_cast<size_t>(sa_[i]);
      return CommonPrefixLength(text + start, p, known,
                                std::min(len, text_.size() - start));
    };
    rank = r - 1;
    int32_t short_rank = lo - 1;  // past the range: shares `known` bytes
    size_t short_lcp = known;
    for (int32_t step = 1; rank - step >= lo; step *= 2) {
      const size_t s = shared(rank - step);
      if (s < len) {
        short_rank = rank - step;
        short_lcp = s;
        break;
      }
      rank -= step;
    }
    if (rank - short_rank > 1) {
      size_t rank_lcp = len;
      rank = LowerBound(p, len, short_rank, rank, &short_lcp, &rank_lcp);
    }
  }
  m.pos = sa_[rank];
  m.len = static_cast<int32_t>(len);
  return m;
}

}  // namespace rlz
