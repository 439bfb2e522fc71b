//===- Session.cpp - Checkpoint codec, stores, session report ------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The non-template half of runtime/Session.h: the self-validating
// checkpoint blob codec, the in-memory and on-disk checkpoint stores, the
// plain-backend ciphertext serializer, and SessionReport rendering. This
// file is deliberately free of IR and scheme types so chet_runtime's link
// interface does not change.
//
//===----------------------------------------------------------------------===//

#include "runtime/Session.h"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

namespace chet {

namespace {

constexpr uint32_t CkptMagic = 0x54504b43;  // "CKPT" little-endian.
constexpr uint32_t PlainCtMagic = 0x31544350; // "PCT1" little-endian.
constexpr uint32_t CkptVersion = 2; // 2: layouts carry their support.

struct ByteWriter {
  ByteBuffer Out;

  void u32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void i32(int32_t V) { u32(static_cast<uint32_t>(V)); }
  void f64(double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    u64(Bits);
  }
  void bytes(const ByteBuffer &B) {
    u64(B.size());
    Out.insert(Out.end(), B.begin(), B.end());
  }
};

/// Reader that throws MalformedCiphertextError on any out-of-bounds read,
/// so truncated blobs surface as typed errors instead of UB.
struct ByteReader {
  const ByteBuffer &In;
  size_t Pos = 0;

  void need(size_t N) const {
    CHET_CHECK(N <= In.size() - Pos, MalformedCiphertext,
               "checkpoint blob truncated: need ", N, " bytes at offset ",
               Pos, " of ", In.size());
  }
  uint32_t u32() {
    need(4);
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(In[Pos++]) << (8 * I);
    return V;
  }
  uint64_t u64() {
    need(8);
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(In[Pos++]) << (8 * I);
    return V;
  }
  int32_t i32() { return static_cast<int32_t>(u32()); }
  double f64() {
    uint64_t Bits = u64();
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    return V;
  }
  ByteBuffer bytes() {
    uint64_t N = u64();
    need(N);
    ByteBuffer B(In.begin() + Pos, In.begin() + Pos + N);
    Pos += N;
    return B;
  }
};

void writeLayout(ByteWriter &W, const TensorLayout &L) {
  W.u32(static_cast<uint32_t>(L.Kind));
  W.i32(L.C);
  W.i32(L.H);
  W.i32(L.W);
  W.i32(L.PhysH);
  W.i32(L.PhysW);
  W.i32(L.OffY);
  W.i32(L.OffX);
  W.i32(L.SY);
  W.i32(L.SX);
  W.i32(L.ChStride);
  W.i32(L.ChPerCt);
  W.u64(L.Slots);
  W.u64(L.Support.size());
  for (uint64_t Word : L.Support)
    W.u64(Word);
}

TensorLayout readLayout(ByteReader &R) {
  TensorLayout L;
  uint32_t Kind = R.u32();
  CHET_CHECK(Kind <= static_cast<uint32_t>(LayoutKind::CHW),
             MalformedCiphertext, "checkpoint layout kind ", Kind,
             " is not a LayoutKind");
  L.Kind = static_cast<LayoutKind>(Kind);
  L.C = R.i32();
  L.H = R.i32();
  L.W = R.i32();
  L.PhysH = R.i32();
  L.PhysW = R.i32();
  L.OffY = R.i32();
  L.OffX = R.i32();
  L.SY = R.i32();
  L.SX = R.i32();
  L.ChStride = R.i32();
  L.ChPerCt = R.i32();
  L.Slots = R.u64();
  uint64_t Words = R.u64();
  CHET_CHECK(Words == 0 || (Words == (L.Slots + 63) / 64 &&
                            Words <= (R.In.size() - R.Pos) / 8),
             MalformedCiphertext, "checkpoint layout support has ", Words,
             " words for ", L.Slots, " slots");
  L.Support.resize(Words);
  for (uint64_t &Word : L.Support)
    Word = R.u64();
  return L;
}

} // namespace

//===----------------------------------------------------------------------===//
// Plain-backend ciphertext serialization
//===----------------------------------------------------------------------===//

ByteBuffer serialize(const PlainBackend::Ct &Ct) {
  ByteWriter W;
  W.u32(PlainCtMagic);
  W.f64(Ct.Scale);
  W.u64(Ct.Values.size());
  for (double V : Ct.Values)
    W.f64(V);
  return std::move(W.Out);
}

void deserializeOrThrow(const ByteBuffer &Bytes, PlainBackend::Ct &Ct) {
  ByteReader R{Bytes};
  uint32_t Magic = R.u32();
  CHET_CHECK(Magic == PlainCtMagic, MalformedCiphertext,
             "plain ciphertext magic mismatch: got ", Magic);
  double Scale = R.f64();
  uint64_t N = R.u64();
  // Each slot occupies 8 bytes; reject counts the buffer cannot hold
  // before allocating.
  CHET_CHECK(N <= (Bytes.size() - R.Pos) / 8, MalformedCiphertext,
             "plain ciphertext claims ", N, " slots but only ",
             Bytes.size() - R.Pos, " bytes remain");
  PlainBackend::Ct Out;
  Out.Scale = Scale;
  Out.Values.reserve(N);
  for (uint64_t I = 0; I < N; ++I)
    Out.Values.push_back(R.f64());
  CHET_CHECK(R.Pos == Bytes.size(), MalformedCiphertext,
             "plain ciphertext has ", Bytes.size() - R.Pos,
             " trailing bytes");
  Ct = std::move(Out);
}

//===----------------------------------------------------------------------===//
// Checkpoint blob codec
//===----------------------------------------------------------------------===//

ByteBuffer encodeCheckpoint(const Checkpoint &Ck) {
  ByteWriter W;
  W.u32(CkptMagic);
  W.u32(CkptVersion);
  W.u64(Ck.Key);
  W.i32(Ck.NodeId);
  W.u32(static_cast<uint32_t>(Ck.Values.size()));
  for (const CheckpointValue &V : Ck.Values) {
    CHET_CHECK(V.Cts.size() == V.Sums.size(), InvalidArgument,
               "checkpoint value has ", V.Cts.size(), " ciphertexts but ",
               V.Sums.size(), " checksums");
    W.i32(V.NodeId);
    writeLayout(W, V.L);
    W.u32(static_cast<uint32_t>(V.Cts.size()));
    for (size_t I = 0; I < V.Cts.size(); ++I) {
      W.bytes(V.Cts[I]);
      W.u64(V.Sums[I]);
    }
  }
  W.u64(fnv1aBytes(W.Out.data(), W.Out.size()));
  return std::move(W.Out);
}

Checkpoint decodeCheckpointOrThrow(const ByteBuffer &Blob) {
  CHET_CHECK(Blob.size() >= 8, MalformedCiphertext,
             "checkpoint blob of ", Blob.size(),
             " bytes is too small to carry its checksum");
  // Whole-blob checksum first: any bit flipped in storage is a
  // DataCorruption, reported before structural parsing can misfire.
  uint64_t Stored = 0;
  for (int I = 0; I < 8; ++I)
    Stored |= static_cast<uint64_t>(Blob[Blob.size() - 8 + I]) << (8 * I);
  uint64_t Actual = fnv1aBytes(Blob.data(), Blob.size() - 8);
  CHET_CHECK(Stored == Actual, DataCorruption,
             "checkpoint blob checksum mismatch: stored ", Stored,
             ", computed ", Actual);

  ByteReader R{Blob};
  uint32_t Magic = R.u32();
  CHET_CHECK(Magic == CkptMagic, MalformedCiphertext,
             "checkpoint magic mismatch: got ", Magic);
  uint32_t Version = R.u32();
  CHET_CHECK(Version == CkptVersion, MalformedCiphertext,
             "checkpoint version ", Version, " is not supported (expected ",
             CkptVersion, ")");
  Checkpoint Ck;
  Ck.Key = R.u64();
  Ck.NodeId = R.i32();
  uint32_t NumValues = R.u32();
  for (uint32_t I = 0; I < NumValues; ++I) {
    CheckpointValue V;
    V.NodeId = R.i32();
    V.L = readLayout(R);
    uint32_t NumCts = R.u32();
    for (uint32_t J = 0; J < NumCts; ++J) {
      ByteBuffer Ct = R.bytes();
      uint64_t Sum = R.u64();
      CHET_CHECK(fnv1aBytes(Ct.data(), Ct.size()) == Sum, DataCorruption,
                 "ciphertext ", J, " of checkpoint value ", I,
                 " fails its checksum");
      V.Cts.push_back(std::move(Ct));
      V.Sums.push_back(Sum);
    }
    Ck.Values.push_back(std::move(V));
  }
  CHET_CHECK(R.Pos == Blob.size() - 8, MalformedCiphertext,
             "checkpoint blob has ", Blob.size() - 8 - R.Pos,
             " unparsed bytes before its checksum");
  return Ck;
}

//===----------------------------------------------------------------------===//
// MemoryCheckpointStore
//===----------------------------------------------------------------------===//

void MemoryCheckpointStore::put(uint64_t Key, int NodeId, ByteBuffer Blob) {
  Blobs[{Key, NodeId}] = std::move(Blob);
}

std::optional<ByteBuffer> MemoryCheckpointStore::fetch(uint64_t Key,
                                                       int NodeId) {
  auto It = Blobs.find({Key, NodeId});
  if (It == Blobs.end())
    return std::nullopt;
  return It->second;
}

std::vector<int> MemoryCheckpointStore::nodeIds(uint64_t Key) const {
  std::vector<int> Ids;
  for (auto It = Blobs.lower_bound({Key, INT_MIN});
       It != Blobs.end() && It->first.first == Key; ++It)
    Ids.push_back(It->first.second);
  return Ids; // Map order: already ascending.
}

void MemoryCheckpointStore::erase(uint64_t Key, int NodeId) {
  Blobs.erase({Key, NodeId});
}

uint64_t MemoryCheckpointStore::bytesStored() const {
  uint64_t N = 0;
  for (const auto &[K, Blob] : Blobs)
    N += Blob.size();
  return N;
}

void MemoryCheckpointStore::clear() { Blobs.clear(); }

bool MemoryCheckpointStore::corruptBlob(uint64_t Key, int NodeId,
                                        size_t BitIndex) {
  auto It = Blobs.find({Key, NodeId});
  if (It == Blobs.end() || It->second.empty())
    return false;
  ByteBuffer &Blob = It->second;
  size_t Bit = BitIndex % (Blob.size() * 8);
  Blob[Bit / 8] ^= static_cast<uint8_t>(1u << (Bit % 8));
  return true;
}

size_t MemoryCheckpointStore::corruptAllBlobs(size_t BitIndex) {
  size_t Corrupted = 0;
  for (auto &[KeyAndNode, Blob] : Blobs) {
    if (Blob.empty())
      continue;
    size_t Bit = BitIndex % (Blob.size() * 8);
    Blob[Bit / 8] ^= static_cast<uint8_t>(1u << (Bit % 8));
    ++Corrupted;
  }
  return Corrupted;
}

//===----------------------------------------------------------------------===//
// FileCheckpointStore
//===----------------------------------------------------------------------===//

FileCheckpointStore::FileCheckpointStore(std::string DirIn)
    : Dir(std::move(DirIn)) {
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  CHET_CHECK(!Ec, IoFailure, "cannot create checkpoint directory '", Dir,
             "': ", Ec.message());
}

std::string FileCheckpointStore::pathFor(uint64_t Key, int NodeId) const {
  char Name[64];
  std::snprintf(Name, sizeof(Name), "ck_%016llx_%d.bin",
                static_cast<unsigned long long>(Key), NodeId);
  return Dir + "/" + Name;
}

void FileCheckpointStore::put(uint64_t Key, int NodeId, ByteBuffer Blob) {
  std::string Path = pathFor(Key, NodeId);
  std::string Tmp = Path + ".tmp";

  // Crash-safe publish: write + fsync the temp file, fsync the directory
  // so the temp entry is durable, rename over the final name, fsync the
  // directory again so the rename is durable. A torn write must never be
  // observable under the final name, and a write-path failure (ENOSPC,
  // short write, failed fsync) surfaces as a Corruption-class error so
  // the session discards this checkpoint attempt instead of later
  // restoring a silently-truncated blob.
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  CHET_CHECK(Fd >= 0, IoFailure, "cannot open '", Tmp,
             "' for writing: ", std::strerror(errno));
  size_t Off = 0;
  while (Off < Blob.size()) {
    ssize_t N = ::write(Fd, Blob.data() + Off, Blob.size() - Off);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0) {
      int Err = errno;
      ::close(Fd);
      ::unlink(Tmp.c_str());
      throw DataCorruptionError(formatError(
          "partial checkpoint write to '", Tmp, "' (", Off, " of ",
          Blob.size(), " bytes): ", std::strerror(Err)));
    }
    Off += static_cast<size_t>(N);
  }
  if (::fsync(Fd) != 0) {
    int Err = errno;
    ::close(Fd);
    ::unlink(Tmp.c_str());
    throw DataCorruptionError(formatError("fsync of checkpoint '", Tmp,
                                          "' failed: ",
                                          std::strerror(Err)));
  }
  if (::close(Fd) != 0) {
    int Err = errno;
    ::unlink(Tmp.c_str());
    throw DataCorruptionError(formatError("close of checkpoint '", Tmp,
                                          "' failed: ",
                                          std::strerror(Err)));
  }

  int DirFd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  CHET_CHECK(DirFd >= 0, IoFailure, "cannot open checkpoint directory '",
             Dir, "': ", std::strerror(errno));
  if (::fsync(DirFd) != 0) { // temp entry durable before the rename
    int Err = errno;
    ::close(DirFd);
    ::unlink(Tmp.c_str());
    throw DataCorruptionError(formatError(
        "fsync of checkpoint directory '", Dir,
        "' failed: ", std::strerror(Err)));
  }
  std::error_code Ec;
  std::filesystem::rename(Tmp, Path, Ec);
  if (Ec) {
    ::close(DirFd);
    ::unlink(Tmp.c_str());
    throwChetError(ErrorCode::IoFailure,
                   formatError("cannot publish checkpoint '", Path,
                               "': ", Ec.message()));
  }
  if (::fsync(DirFd) != 0) { // the rename itself durable
    int Err = errno;
    ::close(DirFd);
    throw DataCorruptionError(formatError(
        "fsync of checkpoint directory '", Dir,
        "' failed after publishing '", Path,
        "': ", std::strerror(Err)));
  }
  ::close(DirFd);
}

std::optional<ByteBuffer> FileCheckpointStore::fetch(uint64_t Key,
                                                     int NodeId) {
  std::ifstream In(pathFor(Key, NodeId), std::ios::binary);
  if (!In.good())
    return std::nullopt;
  ByteBuffer Blob((std::istreambuf_iterator<char>(In)),
                  std::istreambuf_iterator<char>());
  return Blob;
}

std::vector<int> FileCheckpointStore::nodeIds(uint64_t Key) const {
  char Prefix[32];
  std::snprintf(Prefix, sizeof(Prefix), "ck_%016llx_",
                static_cast<unsigned long long>(Key));
  std::vector<int> Ids;
  std::error_code Ec;
  for (const auto &Entry :
       std::filesystem::directory_iterator(Dir, Ec)) {
    std::string Name = Entry.path().filename().string();
    if (Name.rfind(Prefix, 0) != 0 || Name.size() < sizeof("ck__.bin") ||
        Name.substr(Name.size() - 4) != ".bin")
      continue;
    std::string Node = Name.substr(std::strlen(Prefix),
                                   Name.size() - std::strlen(Prefix) - 4);
    if (Node.empty() ||
        Node.find_first_not_of("-0123456789") != std::string::npos)
      continue;
    Ids.push_back(std::atoi(Node.c_str()));
  }
  std::sort(Ids.begin(), Ids.end());
  return Ids;
}

void FileCheckpointStore::erase(uint64_t Key, int NodeId) {
  std::error_code Ec;
  std::filesystem::remove(pathFor(Key, NodeId), Ec);
}

uint64_t FileCheckpointStore::bytesStored() const {
  uint64_t N = 0;
  std::error_code Ec;
  for (const auto &Entry :
       std::filesystem::directory_iterator(Dir, Ec)) {
    std::string Name = Entry.path().filename().string();
    if (Name.rfind("ck_", 0) != 0)
      continue;
    std::error_code SizeEc;
    auto Size = std::filesystem::file_size(Entry.path(), SizeEc);
    if (!SizeEc)
      N += Size;
  }
  return N;
}

void FileCheckpointStore::clear() {
  std::error_code Ec;
  for (const auto &Entry :
       std::filesystem::directory_iterator(Dir, Ec)) {
    std::string Name = Entry.path().filename().string();
    if (Name.rfind("ck_", 0) != 0)
      continue;
    std::error_code RmEc;
    std::filesystem::remove(Entry.path(), RmEc);
  }
}

//===----------------------------------------------------------------------===//
// SessionReport
//===----------------------------------------------------------------------===//

std::string SessionReport::str() const {
  std::ostringstream OS;
  OS << "session " << (Succeeded ? "ok" : "FAILED");
  if (DeadlineExpired)
    OS << " (deadline expired)";
  OS << ": nodes=" << NodesExecuted;
  if (NodesReplayed > 0)
    OS << " (" << NodesReplayed << " replayed)";
  OS << " retries=" << NodeRetries << " restarts=" << Restarts << "\n";
  OS << "  checkpoints: taken=" << CheckpointsTaken
     << " restored=" << CheckpointsRestored
     << " discarded=" << CorruptCheckpointsDiscarded;
  if (CheckpointsPruned > 0)
    OS << " pruned=" << CheckpointsPruned;
  OS << " bytes=" << CheckpointBytes << "\n";
  OS << std::fixed << std::setprecision(3);
  OS << "  time(s): eval=" << EvalSeconds
     << " checkpoint=" << CheckpointSeconds << " restore=" << RestoreSeconds
     << " integrity=" << IntegritySeconds << " backoff=" << BackoffSeconds
     << " total=" << TotalSeconds << "\n";
  if (Faults.empty()) {
    OS << "  faults: none\n";
    return OS.str();
  }
  OS << "  faults (" << Faults.size();
  if (FaultsDropped > 0)
    OS << ", " << FaultsDropped << " dropped";
  OS << "):\n";
  for (const FaultEvent &F : Faults) {
    OS << "    [" << faultClassName(F.Class) << "] node " << F.NodeId
       << " '" << F.Layer << "'";
    if (F.Attempt > 0)
      OS << " attempt " << F.Attempt;
    OS << ": " << F.Message << "\n";
  }
  return OS.str();
}

} // namespace chet
