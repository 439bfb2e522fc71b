//===- LimbPool.h - Pooled allocator for RNS limb arenas -------*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-aware pooled allocator for the flat limb arenas the CKKS hot
/// path burns through: key-switch digit decompositions, per-modulus NTT
/// scratch, rescale correction buffers, encoder staging. Every HISA mul /
/// rescale / rotate used to pay one `std::vector<uint64_t>` construction
/// per temporary -- an allocator round-trip plus a zero-fill of memory
/// that is immediately overwritten. The pool replaces both costs with a
/// size-bucketed free-list lookup returning cache-aligned, *uninitialized*
/// storage.
///
/// Ownership / threading model (DESIGN.md section 5g):
///   - `LimbBuffer` is the only owner handle: RAII, move-only. A buffer
///     acquired on one thread may be released on another; releases go to
///     the *releasing* thread's cache, which is correct because buffers
///     carry no thread affinity -- only the free-list bookkeeping is
///     per-thread.
///   - Each thread keeps a small per-bucket cache (LIFO, so the hottest
///     arena -- the one whose lines are still in this core's L1/L2 -- is
///     reused first). Which lane runs a nested ThreadPool block depends
///     on timing, so a buffer may be acquired on one thread and released
///     on another; the release lands in the releasing thread's cache.
///   - Thread-cache overflow and cold misses fall back to a mutex-guarded
///     global free list, which absorbs that cross-thread traffic: a warm
///     buffer that drifted to another lane is still reused, and only
///     genuinely new high-water demand reaches the system allocator.
///   - Pooling never changes computed values (call sites fully overwrite
///     acquired storage, or explicitly ask for zeroed storage), so
///     results stay bit-identical to unpooled execution -- enforced by the
///     byte-identity suites against `CHET_LIMB_POOL=off`.
///
/// The escape hatch: setting `CHET_LIMB_POOL=off` (or `0` / `false`) in
/// the environment makes every acquisition a fresh zero-filled heap
/// allocation -- exactly the `std::vector` behaviour the pool replaced.
/// Because the disabled path zero-fills while the pooled path hands back
/// stale bytes, any kernel that illegally read before writing would
/// diverge between the two modes and fail the byte-identity gate.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_SUPPORT_LIMBPOOL_H
#define CHET_SUPPORT_LIMBPOOL_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace chet {

class LimbPool {
public:
  /// Arenas are aligned to the typical cache-line size.
  static constexpr size_t Alignment = 64;
  /// Smallest bucket: 64 words (512 bytes).
  static constexpr size_t MinBucketWords = 64;
  /// Buckets are powers of two: 64 words .. 64 << (NumBuckets-1) words
  /// (1 GiB), far above any (levels+1) * degree arena we allocate.
  static constexpr int NumBuckets = 22;
  /// Free arenas parked per bucket per thread before overflowing to the
  /// shared list.
  static constexpr size_t ThreadCacheSlots = 8;
  /// Free arenas parked per bucket on the shared list before being
  /// returned to the system allocator.
  static constexpr size_t GlobalCacheSlots = 256;

  /// The process-wide pool. Never destroyed (thread caches may flush into
  /// it during late thread exit).
  static LimbPool &instance();

  /// Whether acquisitions are served from the pool. Initialized from the
  /// CHET_LIMB_POOL environment variable on first use.
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }
  /// Test/bench hook; outstanding buffers remember which mode produced
  /// them, so toggling while buffers are live is safe.
  void setEnabled(bool On) {
    Enabled.store(On, std::memory_order_relaxed);
  }

  /// Returns >= \p Words words of Alignment-aligned storage and sets
  /// \p CapWords to the bucket capacity actually reserved. Pooled
  /// storage is UNINITIALIZED; \p WillZero marks acquisitions the caller
  /// zero-fills anyway (they are excluded from the bytes-zeroed-avoided
  /// statistic). With the pool disabled the storage is zero-filled, \p
  /// CapWords is 0, and the buffer must be freed with releaseUnpooled.
  uint64_t *acquire(size_t Words, size_t &CapWords, bool WillZero);

  /// Returns a pooled arena (CapWords from acquire) to the free lists.
  void release(uint64_t *Ptr, size_t CapWords) noexcept;

  /// Frees storage acquire() handed out while the pool was disabled.
  static void releaseUnpooled(uint64_t *Ptr) noexcept;

  struct Stats {
    uint64_t Acquires = 0; ///< Pooled acquisitions.
    uint64_t Hits = 0;     ///< Served from a thread or global free list.
    uint64_t Misses = 0;   ///< Required a fresh heap allocation.
    uint64_t Releases = 0;
    uint64_t BytesRequested = 0; ///< Cumulative requested (not capacity).
    /// Bytes handed out uninitialized that std::vector would have
    /// zero-filled (requested bytes of every non-WillZero acquisition).
    uint64_t BytesZeroFillAvoided = 0;
    uint64_t OutstandingBytes = 0; ///< Capacity bytes currently live.
    uint64_t HighWaterBytes = 0;   ///< Max OutstandingBytes observed.
    uint64_t CachedBytes = 0;      ///< Capacity bytes parked on free lists.
  };
  Stats stats() const;
  /// Zeroes the counters; OutstandingBytes is preserved and HighWater
  /// restarts from it.
  void resetStats();

  /// Returns every arena parked on the shared free list and the calling
  /// thread's cache to the system allocator (other threads' caches drain
  /// when those threads exit).
  void trim();

private:
  LimbPool();
  static int bucketFor(size_t Words);
  static uint64_t *allocArena(size_t Words);
  static void freeArena(uint64_t *Ptr) noexcept;

  struct ThreadCache;
  ThreadCache &threadCache();

  std::atomic<bool> Enabled{true};

  struct GlobalList {
    uint64_t *Ptrs[GlobalCacheSlots] = {};
    size_t Count = 0;
  };
  std::atomic<uint64_t> Mu{0}; ///< Tiny spinlock; hot path rarely takes it.
  GlobalList Global[NumBuckets];

  std::atomic<uint64_t> Acquires{0}, Hits{0}, Misses{0}, Releases{0};
  std::atomic<uint64_t> BytesRequested{0}, BytesZeroFillAvoided{0};
  std::atomic<uint64_t> OutstandingBytes{0}, HighWaterBytes{0};
  std::atomic<uint64_t> CachedBytes{0};

  void lock();
  void unlock();
};

/// RAII handle over pool storage; the hot-path replacement for local
/// `std::vector<uint64_t>` temporaries. Move-only. Sizes are in 64-bit
/// words.
class LimbBuffer {
public:
  LimbBuffer() = default;
  /// Uninitialized storage for \p Words words (zeroed when the pool is
  /// disabled -- the std::vector semantics the escape hatch reproduces).
  explicit LimbBuffer(size_t Words) { resizeUninit(Words); }
  static LimbBuffer zeroed(size_t Words) {
    LimbBuffer B;
    B.assignZero(Words);
    return B;
  }

  LimbBuffer(LimbBuffer &&O) noexcept
      : Ptr(O.Ptr), Size(O.Size), Cap(O.Cap), Pooled(O.Pooled) {
    O.Ptr = nullptr;
    O.Size = O.Cap = 0;
    O.Pooled = false;
  }
  LimbBuffer &operator=(LimbBuffer &&O) noexcept {
    if (this != &O) {
      reset();
      Ptr = O.Ptr;
      Size = O.Size;
      Cap = O.Cap;
      Pooled = O.Pooled;
      O.Ptr = nullptr;
      O.Size = O.Cap = 0;
      O.Pooled = false;
    }
    return *this;
  }
  LimbBuffer(const LimbBuffer &) = delete;
  LimbBuffer &operator=(const LimbBuffer &) = delete;
  ~LimbBuffer() { reset(); }

  uint64_t *data() { return Ptr; }
  const uint64_t *data() const { return Ptr; }
  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  uint64_t &operator[](size_t I) { return Ptr[I]; }
  uint64_t operator[](size_t I) const { return Ptr[I]; }
  uint64_t *begin() { return Ptr; }
  uint64_t *end() { return Ptr + Size; }
  const uint64_t *begin() const { return Ptr; }
  const uint64_t *end() const { return Ptr + Size; }

  /// Sets the size to \p Words; contents are unspecified (the caller must
  /// fully overwrite). Reuses current capacity when it suffices.
  void resizeUninit(size_t Words) { ensure(Words, /*WillZero=*/false); }

  /// Sets the size to \p Words and zero-fills.
  void assignZero(size_t Words) {
    bool AlreadyZero = ensure(Words, /*WillZero=*/true);
    if (Ptr && !AlreadyZero)
      std::memset(Ptr, 0, Words * sizeof(uint64_t));
  }

  void reset() noexcept {
    if (Ptr) {
      if (Pooled)
        LimbPool::instance().release(Ptr, Cap);
      else
        LimbPool::releaseUnpooled(Ptr);
    }
    Ptr = nullptr;
    Size = Cap = 0;
    Pooled = false;
  }

private:
  /// Makes [data(), data()+Words) valid; returns true when the storage is
  /// known to be all zero already (a fresh disabled-mode allocation).
  bool ensure(size_t Words, bool WillZero);

  uint64_t *Ptr = nullptr;
  size_t Size = 0;
  size_t Cap = 0;     ///< Pooled bucket capacity (0 for unpooled storage).
  bool Pooled = false;
};

/// Typed scratch over pool storage for trivially-copyable element types
/// (e.g. the encoder's std::complex<double> staging buffers). Contents
/// are unspecified unless constructed via zeroed().
template <typename T> class PooledScratch {
  static_assert(std::is_trivially_copyable_v<T>,
                "pool scratch requires trivially copyable elements");
  static_assert(alignof(T) <= LimbPool::Alignment,
                "element alignment exceeds arena alignment");

public:
  PooledScratch() = default;
  explicit PooledScratch(size_t Count) : Count(Count) {
    Buf.resizeUninit(words(Count));
  }
  /// All-zero-bytes contents -- for T = double / std::complex<double>
  /// this is value initialization.
  static PooledScratch zeroed(size_t Count) {
    PooledScratch S;
    S.Count = Count;
    S.Buf.assignZero(words(Count));
    return S;
  }

  T *data() { return reinterpret_cast<T *>(Buf.data()); }
  const T *data() const { return reinterpret_cast<const T *>(Buf.data()); }
  size_t size() const { return Count; }
  T &operator[](size_t I) { return data()[I]; }
  const T &operator[](size_t I) const { return data()[I]; }

private:
  static size_t words(size_t Count) {
    return (Count * sizeof(T) + sizeof(uint64_t) - 1) / sizeof(uint64_t);
  }
  LimbBuffer Buf;
  size_t Count = 0;
};

} // namespace chet

#endif // CHET_SUPPORT_LIMBPOOL_H
