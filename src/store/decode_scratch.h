#ifndef RLZ_STORE_DECODE_SCRATCH_H_
#define RLZ_STORE_DECODE_SCRATCH_H_

/// \file
/// Reusable per-caller decode buffers for the serving hot path
/// (DESIGN.md §9).

#include <cstdint>
#include <string>
#include <vector>

#include "zip/gzipx.h"

namespace rlz {

/// Reusable scratch buffers for decode-heavy call paths. A request that
/// decodes a document needs a position vector, a length vector, and (for
/// z-coded factor streams) an inflate buffer; without scratch each Get
/// heap-allocates all three and frees them on return. A caller that serves
/// many requests keeps one DecodeScratch per worker thread and passes it
/// down through Archive::Get/GetRange — after the first few requests the
/// buffers reach their steady-state capacity and the decode kernel
/// performs no heap allocations at all (DESIGN.md §9).
///
/// Not thread-safe: a DecodeScratch belongs to exactly one caller at a
/// time (DocService keeps one per worker, guarded by the worker's mutex).
/// Contents are undefined between calls — every consumer clears before
/// use and must not read results out of a scratch it did not just fill.
struct DecodeScratch {
  /// Factor position stream of the document being decoded (PFD/S9 pairs;
  /// the paper's four pairs decode documents and ranges without it).
  std::vector<uint32_t> positions;
  /// Factor length stream of the document being decoded (as above).
  std::vector<uint32_t> lengths;
  /// Inflate buffer for the z-coded position stream (gzipx output; a
  /// range read inflates only the prefix it needs).
  std::string inflate;
  /// Second inflate buffer: the fused decodes of "ZZ" documents need both
  /// raw streams alive at once.
  std::string inflate2;
  /// Whole-document buffer for paths that decode a full document in order
  /// to serve a slice of it (the default Archive::GetRange).
  std::string doc;
  /// Reusable gzipx decode state (code-length buffers, decoder tables).
  GzipxDecodeScratch gzipx;

  /// Releases all held capacity (buffers stay usable). Useful when a
  /// long-lived worker has served an outsized document and should return
  /// the memory.
  void ShrinkToFit() {
    positions.clear();
    positions.shrink_to_fit();
    lengths.clear();
    lengths.shrink_to_fit();
    inflate.clear();
    inflate.shrink_to_fit();
    inflate2.clear();
    inflate2.shrink_to_fit();
    doc.clear();
    doc.shrink_to_fit();
    gzipx = GzipxDecodeScratch();
  }
};

}  // namespace rlz

#endif  // RLZ_STORE_DECODE_SCRATCH_H_
