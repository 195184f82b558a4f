// Chunked bump allocation for the memo's stable storage (the SNIPPETS
// arena + hash-consed-node idiom, extended from the descriptor store to
// group and multi-expression storage).
//
// Two pieces:
//   - Arena: a bump allocator handing out raw blocks. All memory is
//     released at once when the arena dies; nothing is freed individually,
//     so allocation is a pointer bump and the allocator never fragments
//     under the memo's insert-only workload.
//   - StableVector<T>: an append-only vector whose elements NEVER move.
//     Storage is a ladder of geometrically growing chunks (capacity
//     kBase << c) allocated from the arena.
//
// Stable addresses are what let the memo hand out references into groups
// and expression lists that stay valid while rule firings insert and
// merge — the 1995 paper's virtual-memory wall at 8-way joins was as much
// allocator churn as search-space size. Neither piece is thread-safe: an
// arena belongs to one memo, and a memo to one optimizer.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace prairie::common {

/// \brief Bump allocator. Allocations live until the arena is destroyed;
/// there is no per-object free.
class Arena {
 public:
  explicit Arena(size_t block_bytes = 1 << 16) : block_bytes_(block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of storage aligned to `align` (a power of two).
  /// Oversized requests get a dedicated block.
  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t)) {
    uintptr_t p = (cur_ + (align - 1)) & ~(uintptr_t{align} - 1);
    if (p + bytes > end_) {
      const size_t block = bytes + align > block_bytes_ ? bytes + align
                                                        : block_bytes_;
      blocks_.push_back(std::make_unique<char[]>(block));
      bytes_reserved_ += block;
      cur_ = reinterpret_cast<uintptr_t>(blocks_.back().get());
      end_ = cur_ + block;
      p = (cur_ + (align - 1)) & ~(uintptr_t{align} - 1);
    }
    cur_ = p + bytes;
    return reinterpret_cast<void*>(p);
  }

  /// Total block bytes reserved from the system.
  size_t bytes_reserved() const { return bytes_reserved_; }

 private:
  size_t block_bytes_;
  std::vector<std::unique_ptr<char[]>> blocks_;
  uintptr_t cur_ = 0;
  uintptr_t end_ = 0;
  size_t bytes_reserved_ = 0;
};

/// \brief Append-only vector with stable element addresses, backed by an
/// arena.
///
/// Chunk c holds kBase << c elements starting at logical index
/// kBase * ((1 << c) - 1); 40 chunks cover ~2^42 elements. Element
/// destructors run when the StableVector dies (the arena only reclaims the
/// raw memory).
template <typename T>
class StableVector {
 public:
  static constexpr size_t kBase = 8;
  static constexpr size_t kMaxChunks = 40;

  explicit StableVector(Arena* arena) : arena_(arena) {}

  StableVector(const StableVector&) = delete;
  StableVector& operator=(const StableVector&) = delete;

  ~StableVector() { DestroyAll(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T& operator[](size_t i) { return *Slot(i); }
  const T& operator[](size_t i) const { return *Slot(i); }

  T& back() { return (*this)[size_ - 1]; }

  /// Constructs a new element in place at the end.
  template <typename... Args>
  T& EmplaceBack(Args&&... args) {
    size_t chunk, offset;
    Locate(size_, &chunk, &offset);
    T*& base = chunks_[chunk];
    if (base == nullptr) {
      base = static_cast<T*>(
          arena_->Allocate(sizeof(T) * (kBase << chunk), alignof(T)));
    }
    T* slot = base + offset;
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  /// Destroys all elements and resets the size, keeping the chunk ladder
  /// for reuse (the memo's merge path empties the losing group).
  void Clear() {
    DestroyAll();
    size_ = 0;
  }

  /// Index-based iteration over the elements present when begin() was
  /// called.
  class const_iterator {
   public:
    const_iterator(const StableVector* v, size_t i) : v_(v), i_(i) {}
    const T& operator*() const { return (*v_)[i_]; }
    const T* operator->() const { return &(*v_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }

   private:
    const StableVector* v_;
    size_t i_;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

 private:
  static void Locate(size_t i, size_t* chunk, size_t* offset) {
    const size_t q = i / kBase + 1;
    const size_t c = static_cast<size_t>(std::bit_width(q)) - 1;
    *chunk = c;
    *offset = i - kBase * ((size_t{1} << c) - 1);
  }

  T* Slot(size_t i) const {
    size_t chunk, offset;
    Locate(i, &chunk, &offset);
    return chunks_[chunk] + offset;
  }

  void DestroyAll() {
    for (size_t i = 0; i < size_; ++i) Slot(i)->~T();
  }

  Arena* arena_;
  T* chunks_[kMaxChunks] = {};
  size_t size_ = 0;
};

}  // namespace prairie::common
