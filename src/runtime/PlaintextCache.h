//===- PlaintextCache.h - Encoded-plaintext caching ------------*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A cache of encoded weight/mask/bias plaintexts, shared across repeated
/// inferences of one compiled circuit. Section 3.2 of the paper keeps
/// model weights unencrypted on the server, so their encodings (and the
/// per-prime NTT transforms the backends attach to them lazily) are pure
/// functions of (weight tensor, scale, level, layout) -- encoding them once
/// per circuit instead of once per inference removes the dominant
/// plaintext-side cost of the conv/FC kernels.
///
/// Entries are keyed by
///   - the producing op's tensor id (OpNode::Id -- unique per circuit),
///   - a kernel-local sub-key distinguishing the encode sites inside one
///     op (tap/diagonal/row/mask indices, tagged by role),
///   - a fingerprint of the operand TensorLayout (layout policy changes
///     and stride/offset changes re-key automatically),
///   - the fixed-point scale and the target level.
///
/// The compiler's profile-guided scale search (Section 5.5) perturbs the
/// scale exponents between trials; it calls noteScales() so a changed
/// ScaleConfig drops every entry (the scale is part of the key, but a
/// changed config can also change the *modulus chain* the backend was
/// built with, under which cached per-prime NTT forms would be silently
/// wrong -- see RnsCkksBackend::Pt::Cache).
///
/// The table is bounded: entries carry a footprint estimate and a logical
/// LRU stamp, and inserts that push the total past the byte cap evict the
/// least-recently-used entries first. The cache also registers itself
/// with the process MemoryGovernor as a stage-0 reclaimer, so memory
/// pressure anywhere in the process sheds encodings (which re-encode
/// deterministically on the next miss) before anything costlier is
/// touched. Evicted entries still held by in-flight kernels stay alive
/// through their shared_ptr.
///
/// Thread safety: kernels issue lookups from pool threads, so the table is
/// guarded by a shared_mutex (shared for hits, exclusive for inserts).
/// Builders run outside the lock; a racing duplicate build is discarded in
/// favor of the first inserted entry, keeping results deterministic.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_RUNTIME_PLAINTEXTCACHE_H
#define CHET_RUNTIME_PLAINTEXTCACHE_H

#include "hisa/Hisa.h"
#include "runtime/Layout.h"
#include "runtime/ScaleConfig.h"
#include "support/MemoryGovernor.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <tuple>

namespace chet {

/// FNV-1a fingerprint of every layout field that affects an encoded
/// plaintext's slot contents.
inline uint64_t layoutFingerprint(const TensorLayout &L) {
  uint64_t H = 14695981039346656037ull;
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 1099511628211ull;
  };
  Mix(static_cast<uint64_t>(L.Kind));
  Mix(static_cast<uint64_t>(L.C));
  Mix(static_cast<uint64_t>(L.H));
  Mix(static_cast<uint64_t>(L.W));
  Mix(static_cast<uint64_t>(L.PhysH));
  Mix(static_cast<uint64_t>(L.PhysW));
  Mix(static_cast<uint64_t>(L.OffY));
  Mix(static_cast<uint64_t>(L.OffX));
  Mix(static_cast<uint64_t>(L.SY));
  Mix(static_cast<uint64_t>(L.SX));
  Mix(static_cast<uint64_t>(L.ChStride));
  Mix(static_cast<uint64_t>(L.ChPerCt));
  Mix(static_cast<uint64_t>(L.Slots));
  for (uint64_t W : L.Support)
    Mix(W);
  return H;
}

/// Role tags composed into the kernel-local sub-key (high byte), so the
/// same index under different roles never collides.
inline constexpr uint64_t kSubWeight = uint64_t(1) << 56;
inline constexpr uint64_t kSubMask = uint64_t(2) << 56;
inline constexpr uint64_t kSubBias = uint64_t(3) << 56;
inline constexpr uint64_t kSubSlotMask = uint64_t(4) << 56;
inline constexpr uint64_t kSubConcatMask = uint64_t(5) << 56;
inline constexpr uint64_t kSubZero = uint64_t(6) << 56;

/// Footprint estimate of one cached plaintext. The coefficient vector is
/// exact; backends whose Pt carries a lazily filled transform cache
/// (per-prime NTT forms, big-integer staging) grow after insertion, so
/// those are charged a fixed multiple of the coefficient bytes up front
/// -- the cap bounds steady state, not a transient instant.
template <typename PtT> uint64_t plaintextFootprintBytes(const PtT &P) {
  uint64_t Base = 64; // map node + control block overhead
  uint64_t Payload = 0;
  if constexpr (requires { P.Coeffs.size(); })
    Payload = P.Coeffs.size() * sizeof(P.Coeffs[0]);
  else if constexpr (requires { P.Values.size(); })
    Payload = P.Values.size() * sizeof(P.Values[0]);
  else
    Payload = sizeof(PtT);
  if constexpr (requires { typename PtT::Cache; })
    Payload *= 4; // lazily attached transform state
  return Base + Payload;
}

/// Cache of encoded plaintexts for one backend instance. Entries are
/// handed out as shared_ptr<const Pt>: a hit shares the one canonical
/// encoding (and any lazily filled NTT/RNS transform state attached to
/// it) instead of copying the Degree-sized coefficient vector per
/// lookup, which used to be a malloc + memcpy on every cache hit in the
/// conv/FC inner loops.
template <HisaBackend B> class EncodedPlaintextCache {
public:
  /// Default byte cap. Generous for every zoo network at bench scales;
  /// the point is bounding a long-lived server against unbounded growth,
  /// not squeezing single inferences.
  static constexpr uint64_t kDefaultCapacityBytes = 256ull << 20;

  struct Key {
    uint64_t TensorId = 0;  ///< Producing op (OpNode::Id).
    uint64_t Sub = 0;       ///< Encode site within the op (role-tagged).
    uint64_t LayoutFp = 0;  ///< layoutFingerprint of the operand layout.
    double Scale = 1.0;     ///< Fixed-point scale of the encoding.
    int Level = 0;          ///< Target level (0 for the level-agnostic
                            ///< Pt representations of both CKKS backends).

    auto tie() const {
      return std::make_tuple(TensorId, Sub, LayoutFp, Scale, Level);
    }
    bool operator<(const Key &O) const { return tie() < O.tie(); }
  };

  EncodedPlaintextCache() {
    // Stage-0 reclaimer: drop the cold half under process-wide pressure.
    // Repeated pressure ratchets further down; a fully evicted cache
    // costs one re-encode per entry on the next inference, nothing else.
    Reclaimer = MemoryGovernor::instance().addReclaimer(
        MemoryGovernor::StageCacheEvict,
        [this] { return evictToBytes(bytes() / 2); });
  }
  ~EncodedPlaintextCache() {
    // Blocks until any in-flight governor reclaim run finishes, so the
    // callback can never observe a dead `this`.
    MemoryGovernor::instance().removeReclaimer(Reclaimer);
  }
  EncodedPlaintextCache(const EncodedPlaintextCache &) = delete;
  EncodedPlaintextCache &operator=(const EncodedPlaintextCache &) = delete;

  /// Returns the plaintext for \p K, invoking \p Build on a miss. Build
  /// runs outside the table lock; when two threads race on the same key
  /// the first insert wins and the loser's build is discarded, so every
  /// caller observes one canonical entry.
  template <typename BuildFn>
  std::shared_ptr<const typename B::Pt> get(const Key &K, BuildFn &&Build) {
    {
      std::shared_lock Lock(Mu);
      auto It = Table.find(K);
      if (It != Table.end()) {
        // Stamp update under the shared lock: the atomic lives in the
        // map node, which is stable while we hold any lock.
        It->second.Stamp.store(Clock.fetch_add(1, std::memory_order_relaxed),
                               std::memory_order_relaxed);
        Hits.fetch_add(1, std::memory_order_relaxed);
        return It->second.Val;
      }
    }
    Misses.fetch_add(1, std::memory_order_relaxed);
    auto Built = std::make_shared<const typename B::Pt>(Build());
    uint64_t Bytes = plaintextFootprintBytes(*Built);
    std::unique_lock Lock(Mu);
    auto [It, Inserted] = Table.try_emplace(K);
    // Stamp before any eviction runs: a freshly inserted entry must be
    // the newest, not a zero-stamp LRU victim of its own insert.
    It->second.Stamp.store(Clock.fetch_add(1, std::memory_order_relaxed),
                           std::memory_order_relaxed);
    if (!Inserted)
      return It->second.Val;
    It->second.Val = std::move(Built);
    It->second.Bytes = Bytes;
    TotalBytes += Bytes;
    // Keep the handout alive across eviction: if this entry alone
    // exceeds the cap it is evicted immediately, but the caller still
    // gets a usable encoding.
    std::shared_ptr<const typename B::Pt> Val = It->second.Val;
    evictOverCapLocked();
    return Val;
  }

  /// Drops every entry (manual invalidation).
  void invalidate() {
    std::unique_lock Lock(Mu);
    Table.clear();
    TotalBytes = 0;
    Invalidations.fetch_add(1, std::memory_order_relaxed);
  }

  /// Compiler hook: called before each scale-search trial (and by the
  /// evaluator before each inference). A changed ScaleConfig invalidates
  /// the whole cache (see file comment). The first call merely records
  /// the configuration -- unless entries of unknown provenance already
  /// exist, which are conservatively dropped.
  void noteScales(const ScaleConfig &S) {
    std::unique_lock Lock(Mu);
    bool Changed = LastScales && !sameScales(*LastScales, S);
    bool Unknown = !LastScales && !Table.empty();
    if (Changed || Unknown) {
      Table.clear();
      TotalBytes = 0;
      Invalidations.fetch_add(1, std::memory_order_relaxed);
    }
    LastScales = S;
  }

  /// Evicts least-recently-used entries until the retained footprint is
  /// at most \p TargetBytes; returns the bytes freed. evictToBytes(0)
  /// empties the cache. This is the one eviction path: the insert-time
  /// cap and governor-triggered reclaim both land here.
  uint64_t evictToBytes(uint64_t TargetBytes) {
    std::unique_lock Lock(Mu);
    return evictToBytesLocked(TargetBytes);
  }

  /// Byte cap enforced at insert time. Setting a smaller cap evicts
  /// immediately.
  void setCapacityBytes(uint64_t Bytes) {
    std::unique_lock Lock(Mu);
    CapacityBytes = Bytes;
    evictOverCapLocked();
  }
  uint64_t capacityBytes() const {
    std::shared_lock Lock(Mu);
    return CapacityBytes;
  }

  size_t size() const {
    std::shared_lock Lock(Mu);
    return Table.size();
  }
  /// Estimated retained footprint of the current entries.
  uint64_t bytes() const {
    std::shared_lock Lock(Mu);
    return TotalBytes;
  }
  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return Evictions.load(std::memory_order_relaxed);
  }
  uint64_t invalidations() const {
    return Invalidations.load(std::memory_order_relaxed);
  }

private:
  struct Entry {
    std::shared_ptr<const typename B::Pt> Val;
    uint64_t Bytes = 0;
    std::atomic<uint64_t> Stamp{0}; ///< Logical LRU clock at last touch.
  };

  static bool sameScales(const ScaleConfig &A, const ScaleConfig &Bc) {
    return A.Image == Bc.Image && A.Weight == Bc.Weight &&
           A.Scalar == Bc.Scalar && A.Mask == Bc.Mask;
  }

  void evictOverCapLocked() {
    if (CapacityBytes != 0 && TotalBytes > CapacityBytes)
      evictToBytesLocked(CapacityBytes);
  }

  uint64_t evictToBytesLocked(uint64_t TargetBytes) {
    uint64_t Freed = 0;
    while (TotalBytes > TargetBytes && !Table.empty()) {
      auto Oldest = Table.begin();
      uint64_t OldestStamp = Oldest->second.Stamp.load(
          std::memory_order_relaxed);
      for (auto It = std::next(Table.begin()); It != Table.end(); ++It) {
        uint64_t S = It->second.Stamp.load(std::memory_order_relaxed);
        if (S < OldestStamp) {
          Oldest = It;
          OldestStamp = S;
        }
      }
      Freed += Oldest->second.Bytes;
      TotalBytes -= std::min(TotalBytes, Oldest->second.Bytes);
      Table.erase(Oldest);
      Evictions.fetch_add(1, std::memory_order_relaxed);
    }
    return Freed;
  }

  mutable std::shared_mutex Mu;
  std::map<Key, Entry> Table;
  uint64_t TotalBytes = 0;
  uint64_t CapacityBytes = kDefaultCapacityBytes;
  std::optional<ScaleConfig> LastScales;
  std::atomic<uint64_t> Clock{1};
  std::atomic<uint64_t> Hits{0}, Misses{0}, Evictions{0}, Invalidations{0};
  uint64_t Reclaimer = 0;
};

/// The cache handle the evaluator threads through the kernel entry
/// points: a (possibly null) cache plus the current op's tensor id. A
/// default-constructed handle disables caching, so kernels are callable
/// unchanged outside circuit evaluation.
template <HisaBackend B> struct KernelCache {
  EncodedPlaintextCache<B> *Cache = nullptr;
  uint64_t TensorId = 0;
};

/// Encodes \p Build() at \p Scale, consulting the cache when one is
/// attached. \p Sub identifies the encode site inside the op (compose the
/// kSub* role tags with site indices); \p L is the layout the slot vector
/// was built against. Returns a shared handle: cache hits alias the one
/// canonical entry, uncached paths wrap a fresh encoding.
template <HisaBackend B, typename BuildFn>
std::shared_ptr<const typename B::Pt>
cachedEncode(B &Backend, const KernelCache<B> &KC, uint64_t Sub,
             const TensorLayout &L, double Scale, BuildFn &&Build) {
  if constexpr (BackendEncodeIsValueAgnostic<B>)
    // Slot contents are never inspected.
    return std::make_shared<const typename B::Pt>(Backend.encode({}, Scale));
  if (!KC.Cache)
    return std::make_shared<const typename B::Pt>(
        Backend.encode(Build(), Scale));
  return KC.Cache->get(
      {KC.TensorId, Sub, layoutFingerprint(L), Scale, /*Level=*/0},
      [&] { return Backend.encode(Build(), Scale); });
}

} // namespace chet

#endif // CHET_RUNTIME_PLAINTEXTCACHE_H
