// The fired-binding set: every trans-rule binding one optimizer has
// attempted, so the transformation closure fires each binding once
// (DESIGN.md §6.1).
//
// A key is an array of 32-bit words whose first word is a small tag (the
// engine uses the rule index) that fixes the key's length: keys with equal
// tags have equal lengths, so no length word is stored. Keys are packed
// back to back in chunks the set owns; the table is a flat open-addressing
// array of key offsets, probed quadratically. Equality compares every word
// of both keys — a hash match alone never counts. The set allocates
// nothing until its first key, nothing per lookup, and only grows. It is
// not thread-safe: a set belongs to one optimizer.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace prairie::volcano {

/// \brief An insert-only set of word-array keys, stored compactly.
class FiredBindingSet {
 public:
  FiredBindingSet() = default;
  FiredBindingSet(const FiredBindingSet&) = delete;
  FiredBindingSet& operator=(const FiredBindingSet&) = delete;

  /// Returns room for a candidate key of `len` >= 1 words at the end of
  /// the key storage. The caller writes the key there, then calls
  /// InsertStaged(); a later Stage() reuses the words of a key that was
  /// never inserted.
  uint32_t* Stage(size_t len);

  /// Adds the staged key and returns true, or returns false (keeping
  /// nothing) when an equal key is already present. Once 16 GiB of keys
  /// are stored, every later key is reported new and not stored.
  bool InsertStaged();

  /// Keys in the set.
  size_t size() const { return size_; }
  /// Heap bytes held: key chunks, the offset table and the tag lengths.
  size_t bytes() const;

 private:
  /// Words per chunk; a longer key gets a chunk of its own.
  static constexpr size_t kChunkWords = size_t{1} << 12;
  /// Chunks 32-bit offsets can address, kEmpty excluded (16 GiB of keys).
  static constexpr size_t kMaxChunks = (size_t{1} << 20) - 1;
  static constexpr uint32_t kEmpty = UINT32_MAX;

  const uint32_t* KeyAt(uint32_t offset) const {
    return chunks_[offset / kChunkWords].get() + offset % kChunkWords;
  }
  /// The slot holding a key equal to `key`, or the empty slot it belongs in.
  size_t Probe(const uint32_t* key, size_t len) const;
  /// Doubles the table (first call: allocates it) and re-inserts every key
  /// without comparing keys.
  void Grow();

  /// Key storage. A key's offset is its chunk index times kChunkWords plus
  /// its position in the chunk.
  std::vector<std::unique_ptr<uint32_t[]>> chunks_;
  size_t chunk_words_ = 0;  ///< Capacity of chunks_.back().
  size_t chunk_used_ = 0;   ///< Words of chunks_.back() holding keys.
  size_t chunk_bytes_ = 0;
  uint32_t staged_ = kEmpty;  ///< Offset of the staged key.
  size_t staged_len_ = 0;
  /// Set once kMaxChunks chunks are full; later keys are staged in
  /// overflow_ and never stored.
  bool full_ = false;
  std::vector<uint32_t> overflow_;
  /// Open-addressing table of key offsets (kEmpty: free); capacity_ is a
  /// power of two, or 0 before the first key.
  std::unique_ptr<uint32_t[]> slots_;
  size_t capacity_ = 0;
  int shift_ = 64;  ///< 64 - log2(capacity_): a hash's top bits index slots.
  size_t size_ = 0;
  /// tag_len_[t]: the length of keys tagged t (used when re-inserting).
  std::vector<uint32_t> tag_len_;
};

}  // namespace prairie::volcano
