#include "volcano/fired_set.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace prairie::volcano {

namespace {

constexpr size_t kInitialSlots = 256;

/// Multiplicative hash of a key; the caller indexes with its top bits,
/// which depend on every word.
uint64_t HashWords(const uint32_t* key, size_t len) {
  uint64_t h = len;
  for (size_t i = 0; i < len; ++i) h = (h ^ key[i]) * 0x9e3779b97f4a7c15ULL;
  return h;
}

}  // namespace

uint32_t* FiredBindingSet::Stage(size_t len) {
  assert(len >= 1);
  // A key starts within the first kChunkWords words of its chunk, which
  // its offset can address, and ends inside the chunk.
  if (chunk_used_ >= kChunkWords || chunk_used_ + len > chunk_words_) {
    if (chunks_.size() == kMaxChunks) {
      // Offsets are exhausted: stop recording. Every later key counts as
      // new, so its binding fires, as it would without the set.
      full_ = true;
      overflow_.resize(len);
      return overflow_.data();
    }
    chunk_words_ = std::max(kChunkWords, len);
    chunks_.emplace_back(new uint32_t[chunk_words_]);
    chunk_used_ = 0;
    chunk_bytes_ += chunk_words_ * sizeof(uint32_t);
  }
  staged_ = static_cast<uint32_t>((chunks_.size() - 1) * kChunkWords +
                                  chunk_used_);
  staged_len_ = len;
  return chunks_.back().get() + chunk_used_;
}

bool FiredBindingSet::InsertStaged() {
  if (full_) return true;
  const uint32_t* key = KeyAt(staged_);
  // Load factor at most 3/4.
  if ((size_ + 1) * 4 > capacity_ * 3) Grow();
  const size_t slot = Probe(key, staged_len_);
  if (slots_[slot] != kEmpty) return false;
  slots_[slot] = staged_;
  ++size_;
  chunk_used_ += staged_len_;
  const uint32_t tag = key[0];
  if (tag >= tag_len_.size()) tag_len_.resize(size_t{tag} + 1, 0);
  assert(tag_len_[tag] == 0 || tag_len_[tag] == staged_len_);
  tag_len_[tag] = static_cast<uint32_t>(staged_len_);
  return true;
}

size_t FiredBindingSet::Probe(const uint32_t* key, size_t len) const {
  const size_t mask = capacity_ - 1;
  size_t i = static_cast<size_t>(HashWords(key, len) >> shift_);
  for (size_t step = 1;; ++step) {
    const uint32_t offset = slots_[i];
    if (offset == kEmpty) return i;
    const uint32_t* other = KeyAt(offset);
    // Equal tags imply equal lengths, so `other` has `len` words here.
    if (other[0] == key[0] && std::equal(key + 1, key + len, other + 1)) {
      return i;
    }
    i = (i + step) & mask;  // Triangular steps visit every slot.
  }
}

void FiredBindingSet::Grow() {
  const size_t old_capacity = capacity_;
  std::unique_ptr<uint32_t[]> old = std::move(slots_);
  capacity_ = old_capacity == 0 ? kInitialSlots : 2 * old_capacity;
  shift_ = 64 - std::countr_zero(capacity_);
  slots_.reset(new uint32_t[capacity_]);
  std::fill(slots_.get(), slots_.get() + capacity_, kEmpty);
  const size_t mask = capacity_ - 1;
  for (size_t s = 0; s < old_capacity; ++s) {
    if (old[s] == kEmpty) continue;
    // Stored keys are distinct, so each takes the first free slot of its
    // probe sequence: no key compares.
    const uint32_t* key = KeyAt(old[s]);
    size_t i = static_cast<size_t>(HashWords(key, tag_len_[key[0]]) >> shift_);
    for (size_t step = 1; slots_[i] != kEmpty; ++step) i = (i + step) & mask;
    slots_[i] = old[s];
  }
}

size_t FiredBindingSet::bytes() const {
  return chunk_bytes_ + capacity_ * sizeof(uint32_t) +
         tag_len_.capacity() * sizeof(uint32_t);
}

}  // namespace prairie::volcano
