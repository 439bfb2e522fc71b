//===- Server.h - Multi-tenant encrypted-inference server -------*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A hardened serving layer on top of runtime/Session: an InferenceServer
/// owns per-tenant TenantContexts (keys and compiled circuits registered
/// once, reused across requests), a bounded request queue with admission
/// control, deadline-aware scheduling, and per-tenant fault isolation.
///
/// Admission control (all decided synchronously on the submitting thread,
/// each with a typed rejection):
///   - ServerShutdown     -- the server is draining; nothing new admitted.
///   - UnknownTenant      -- the tenant id was never registered.
///   - StaleKey           -- the request pins a key epoch older than the
///                           tenant's current one (keys rotated since the
///                           ciphertext was produced).
///   - ServerOverloaded   -- the queue crossed its high-water mark; load
///                           is shed newest-first (the arriving request is
///                           the one rejected).
///   - TenantThrottled    -- the tenant's seeded token bucket is empty.
///   - ResourceExhausted  -- with a memory budget configured, the
///                           tenant's predicted peak footprint can never
///                           fit the budget, or the governor is under
///                           pressure with a deep queue (shed
///                           newest-first, like overload).
///
/// Memory governance: when ServerConfig::MemoryBudgetBytes is set the
/// process-wide MemoryGovernor is given that budget, and tenants that
/// registered a PredictedPeakBytes (from the compiler's static footprint
/// analysis) reserve it for the duration of each dispatched request.
/// Dispatch skips queued requests that do not currently fit -- other
/// tenants' fitting requests pass them -- and under pressure the
/// degradation order is: evict plaintext caches, trim limb pools, shrink
/// checkpoint retention, then shed newest submissions. Every admitted
/// request still completes byte-identically; the budget changes *when*
/// work runs, never *what* it computes.
///
/// Fault isolation: each tenant runs at most one request at a time (serial
/// FIFO per tenant), so a misbehaving tenant can hold at most one worker
/// lane. Transient faults inside a request are retried by the session's
/// seeded-jitter backoff; a tenant whose *requests* keep failing trips a
/// per-tenant circuit breaker whose cooldown and half-open probe are
/// driven by dispatch counts, not wall clock -- so a chaos soak trips and
/// recovers identically at any lane count. While the breaker is open,
/// that tenant's queued requests are rejected at dispatch without
/// occupying a lane.
///
/// Determinism contract (what the chaos soak gates on): per-tenant serial
/// execution means each tenant's op stream -- and therefore its seeded
/// fault schedule, retry counts, and completed-response bytes -- is
/// independent of the number of worker lanes and of other tenants'
/// scheduling. Admission decisions are made in submission order on the
/// submitting thread; breaker decisions are made in per-tenant dispatch
/// order. Every counter in ServerReport is lane-count-invariant for a
/// fixed submission schedule (queue-depth high-water excepted when
/// requests are admitted while lanes drain concurrently; pause() the
/// server while submitting to pin that too).
///
/// Deadlines: a per-request budget (counted from submit) and a
/// server-level cap (counted from dispatch) are installed as nested
/// DeadlineScopes; min-combining (support/Deadline.h) guarantees the
/// tighter one wins, so a request can never extend the server's cap.
///
/// shutdown() drains gracefully: admission stops with typed rejections,
/// queued work is either completed (within the drain budget) or rejected
/// with a structured report, and in-flight requests always run to
/// completion -- their checkpoint stores retain whatever progress was
/// made, so no work is silently lost.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_SERVER_SERVER_H
#define CHET_SERVER_SERVER_H

#include "runtime/PlaintextCache.h"
#include "runtime/Session.h"
#include "support/LimbPool.h"
#include "support/MemoryGovernor.h"
#include "support/Prng.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace chet {

//===----------------------------------------------------------------------===//
// Token bucket (seeded, logical-tick driven)
//===----------------------------------------------------------------------===//

/// Per-tenant rate limit. Refill is driven by the server's global
/// admission tick (one tick per submit() call), not wall clock, so a
/// fixed submission schedule always produces the same admit/throttle
/// pattern.
struct TokenBucketPolicy {
  /// Tokens added per admission tick; 0 disables the bucket.
  double RatePerTick = 0;
  /// Bucket capacity (maximum burst).
  double Burst = 1;
};

class TokenBucket {
public:
  TokenBucket() = default;
  /// \p Seed staggers the initial fill deterministically (up to half a
  /// token) so co-registered tenants do not refill in lockstep.
  TokenBucket(const TokenBucketPolicy &P, uint64_t Seed);

  bool enabled() const { return Policy.RatePerTick > 0; }

  /// Refills for the ticks elapsed since the last call, then takes one
  /// token if available. \p Tick must be non-decreasing.
  bool tryAcquire(uint64_t Tick);

private:
  TokenBucketPolicy Policy;
  double Tokens = 0;
  uint64_t LastTick = 0;
};

//===----------------------------------------------------------------------===//
// Circuit breaker (dispatch-count driven)
//===----------------------------------------------------------------------===//

struct CircuitBreakerPolicy {
  bool Enabled = true;
  /// Sliding window of recent request outcomes examined for the trip
  /// decision.
  int WindowSize = 8;
  /// Minimum outcomes in the window before the breaker may trip.
  int MinSamples = 4;
  /// Trip when failures / samples >= this threshold.
  double FailureThreshold = 0.5;
  /// Dispatch attempts rejected while open before the next attempt is
  /// admitted as a half-open probe. Counting dispatches instead of wall
  /// clock keeps trip/recover schedules deterministic under test.
  int CooldownRejections = 4;
};

enum class BreakerState { Closed, Open, HalfOpen };

const char *breakerStateName(BreakerState S);

/// Per-tenant failure-rate breaker. All transitions happen in the
/// tenant's serial dispatch/outcome order, so they are deterministic for
/// a fixed submission schedule regardless of lane count.
class CircuitBreaker {
public:
  enum class Decision { Admit, Probe, Reject };

  CircuitBreaker() = default;
  explicit CircuitBreaker(const CircuitBreakerPolicy &P) : Policy(P) {}

  /// Called when a queued request of this tenant is considered for
  /// dispatch.
  Decision onDispatch();

  /// Called with the outcome of every admitted (or probed) request.
  void onOutcome(bool Ok);

  BreakerState state() const { return State; }
  uint64_t trips() const { return Trips; }
  uint64_t probes() const { return Probes; }
  uint64_t recoveries() const { return Recoveries; }

private:
  CircuitBreakerPolicy Policy;
  BreakerState State = BreakerState::Closed;
  std::deque<bool> Window; ///< Recent outcomes, oldest first.
  int CooldownLeft = 0;
  uint64_t Trips = 0;
  uint64_t Probes = 0;
  uint64_t Recoveries = 0;
};

//===----------------------------------------------------------------------===//
// Requests and responses
//===----------------------------------------------------------------------===//

enum class RequestStatus {
  Pending,   ///< Queued or executing.
  Completed, ///< Evaluated successfully; Output holds the result.
  Rejected,  ///< Never executed (admission, breaker, expiry, drain).
  Failed,    ///< Executed but the session raised an unrecoverable fault.
};

const char *requestStatusName(RequestStatus S);

struct RequestOptions {
  /// Key epoch the input ciphertexts were produced under; 0 means "the
  /// tenant's current epoch at submit". A mismatch (now or at dispatch,
  /// after an intervening rotateTenantKeys) rejects with StaleKey.
  uint64_t KeyEpoch = 0;
  /// > 0: wall-clock budget for this request counted from submission
  /// (time spent queued counts). Expired-in-queue requests are rejected
  /// at dispatch without occupying a lane.
  double TimeBudgetSeconds = 0;
};

/// The structured outcome of one request -- completion, typed rejection,
/// or typed failure -- plus the session report when it actually ran.
struct ServerResponse {
  uint64_t Id = 0;
  std::string Tenant;
  RequestStatus Status = RequestStatus::Pending;
  /// Meaningful when Status is Rejected or Failed.
  ErrorCode Code = ErrorCode::InvalidArgument;
  FaultClass Class = FaultClass::Permanent;
  std::string Message;
  /// Serialized output ciphertexts (wire format) when Completed and the
  /// backend is serializable; empty otherwise.
  std::vector<ByteBuffer> Output;
  TensorLayout OutLayout;
  /// The session's own report when the request executed.
  SessionReport Session;
  double LatencySeconds = 0; ///< Submit -> resolution.
  double QueueSeconds = 0;   ///< Submit -> dispatch (0 if never dispatched).
};

namespace detail {
struct RequestState {
  std::mutex Mu;
  std::condition_variable Cv;
  bool Ready = false;
  ServerResponse Response;
};
} // namespace detail

/// Handle returned by submit(); wait() blocks until the request resolves.
class RequestTicket {
public:
  RequestTicket() = default;
  explicit RequestTicket(std::shared_ptr<detail::RequestState> S)
      : State(std::move(S)) {}

  bool valid() const { return State != nullptr; }

  bool done() const {
    std::lock_guard<std::mutex> Lock(State->Mu);
    return State->Ready;
  }

  /// Blocks until the request completes, fails, or is rejected, then
  /// returns the response (stable for the ticket's lifetime).
  const ServerResponse &wait() const {
    std::unique_lock<std::mutex> Lock(State->Mu);
    State->Cv.wait(Lock, [&] { return State->Ready; });
    return State->Response;
  }

private:
  std::shared_ptr<detail::RequestState> State;
};

//===----------------------------------------------------------------------===//
// Reports
//===----------------------------------------------------------------------===//

/// Per-tenant slice of a ServerReport.
struct TenantReport {
  std::string Tenant;
  uint64_t KeyEpoch = 0;
  uint64_t Submitted = 0;
  uint64_t Accepted = 0;
  uint64_t Completed = 0;
  uint64_t Failed = 0;
  uint64_t RejectedOverload = 0;
  uint64_t RejectedThrottled = 0;
  uint64_t RejectedBreaker = 0;
  uint64_t RejectedStaleKey = 0;
  uint64_t RejectedShutdown = 0;
  uint64_t RejectedDeadline = 0;
  /// Memory-budget rejections (predicted footprint can never fit, or
  /// shed while the governor was under pressure).
  uint64_t RejectedMemory = 0;
  /// Largest footprint reservation this tenant held at once.
  uint64_t PeakReservedBytes = 0;
  uint64_t Retries = 0;  ///< Session in-place transient retries.
  uint64_t Restarts = 0; ///< Session rollbacks (restore / restart).
  uint64_t CheckpointsTaken = 0;
  uint64_t CheckpointsRestored = 0;
  uint64_t BreakerTrips = 0;
  uint64_t BreakerProbes = 0;
  uint64_t BreakerRecoveries = 0;
  BreakerState Breaker = BreakerState::Closed;
  double P50LatencySeconds = 0; ///< Over completed requests.
  double P99LatencySeconds = 0;

  uint64_t rejected() const {
    return RejectedOverload + RejectedThrottled + RejectedBreaker +
           RejectedStaleKey + RejectedShutdown + RejectedDeadline +
           RejectedMemory;
  }
};

/// Mirror of SessionReport one level up: everything a deployment needs to
/// understand what the server did under load.
struct ServerReport {
  std::vector<TenantReport> Tenants; ///< Sorted by tenant id.
  uint64_t Submitted = 0;
  uint64_t Accepted = 0;
  uint64_t Completed = 0;
  uint64_t Failed = 0;
  uint64_t Rejected = 0;
  /// Rejections addressed to ids no registerTenant call ever created
  /// (they have no TenantReport row).
  uint64_t RejectedUnknownTenant = 0;
  /// Queued-but-unstarted requests rejected when the drain budget
  /// expired during shutdown().
  uint64_t DrainRejected = 0;
  size_t QueueHighWater = 0;
  unsigned Lanes = 0;
  bool ShutDown = false;
  /// Process-wide limb-pool snapshot at report time: how much allocator
  /// churn the inference lanes produced (see support/LimbPool.h).
  LimbPool::Stats Pool;
  /// Process-wide memory-governor snapshot at report time: budget,
  /// reservation high-water, and reclaim activity
  /// (see support/MemoryGovernor.h).
  MemoryGovernorStats Governor;

  /// Human-readable multi-line rendering.
  std::string str() const;
};

/// Nearest-rank percentile of an unsorted sample set (sorts a copy);
/// returns 0 on an empty set. Exposed for the load bench.
double latencyPercentile(std::vector<double> Samples, double Pct);

//===----------------------------------------------------------------------===//
// Server configuration
//===----------------------------------------------------------------------===//

struct ServerConfig {
  /// Worker lanes executing requests (each runs one session at a time;
  /// the global ThreadPool parallelizes kernels beneath them).
  unsigned Lanes = 2;
  /// Queue high-water mark: submissions past this depth are shed
  /// newest-first with ServerOverloaded.
  size_t QueueHighWater = 64;
  /// Seeds the token buckets (deterministic stagger across tenants).
  uint64_t Seed = 0x5eedc4e7;
  /// > 0: server-level cap on one request's execution, installed as a
  /// DeadlineScope around the session (min-combines with the request's
  /// own budget). Bounds how long a drain can wait on in-flight work.
  double MaxRequestSeconds = 0;
  /// Default per-tenant rate limit; TenantOptions can override.
  TokenBucketPolicy Bucket;
  /// Per-tenant breaker policy.
  CircuitBreakerPolicy Breaker;
  /// Session policies applied to every request.
  SessionRetryPolicy Retry;
  /// Checkpoint policy for tenants that registered a store.
  CheckpointPolicy Checkpoint;
  /// Forwarded to SessionConfig for backends with verifyCt; forced to 0
  /// for backends without.
  int IntegrityCheckEveryNodes = 0;
  /// Share one EncodedPlaintextCache per tenant across its requests.
  bool UsePlaintextCache = true;
  /// > 0: installs this budget on the process-wide MemoryGovernor at
  /// construction. Tenants with a PredictedPeakBytes reserve their
  /// footprint at dispatch; requests that cannot currently fit wait in
  /// the queue, and under pressure the server sheds newest submissions
  /// with ResourceExhausted. 0 leaves the governor's budget untouched.
  uint64_t MemoryBudgetBytes = 0;
};

struct TenantOptions {
  ScaleConfig Scales;
  LayoutPolicy Policy = LayoutPolicy::AllHW;
  FcAlgorithm FcAlg = FcAlgorithm::Auto;
  /// Borrowed checkpoint store; enables the server's checkpoint policy
  /// for this tenant (drain durability).
  CheckpointStore *Store = nullptr;
  /// Overrides ServerConfig::Bucket when set.
  std::optional<TokenBucketPolicy> Bucket;
  /// Worst-case bytes one request of this tenant holds live at once --
  /// pass CompiledCircuit::Footprint.PeakBytes from the static analysis.
  /// 0 exempts the tenant from memory admission (legacy behavior).
  uint64_t PredictedPeakBytes = 0;
};

//===----------------------------------------------------------------------===//
// InferenceServer
//===----------------------------------------------------------------------===//

template <HisaBackend B> class InferenceServer {
public:
  explicit InferenceServer(ServerConfig CfgIn = {}) : Cfg(std::move(CfgIn)) {
    CHET_CHECK(Cfg.Lanes >= 1, InvalidArgument,
               "InferenceServer needs at least one lane, got ", Cfg.Lanes);
    CHET_CHECK(Cfg.QueueHighWater >= 1, InvalidArgument,
               "QueueHighWater must be >= 1, got ", Cfg.QueueHighWater);
    if constexpr (!BackendHasVerifyCt<B>)
      Cfg.IntegrityCheckEveryNodes = 0;
    if (Cfg.MemoryBudgetBytes > 0)
      MemoryGovernor::instance().setBudgetBytes(Cfg.MemoryBudgetBytes);
    Workers.reserve(Cfg.Lanes);
    for (unsigned I = 0; I < Cfg.Lanes; ++I)
      Workers.emplace_back([this] { workerLoop(); });
  }

  ~InferenceServer() {
    if (!Joined)
      shutdown();
  }

  InferenceServer(const InferenceServer &) = delete;
  InferenceServer &operator=(const InferenceServer &) = delete;

  /// Registers a tenant: its keys (the backend) and compiled circuit are
  /// validated once and reused for every request. Returns the tenant's
  /// initial key epoch (1). Backend, circuit, and store are borrowed and
  /// must outlive the server. Throws InvalidArgument on a duplicate id
  /// and a typed LayoutMismatch/InfeasibleCircuit when the circuit does
  /// not fit the backend's slot count (key/circuit mismatch).
  uint64_t registerTenant(const std::string &Id, B &Backend,
                          const TensorCircuit &Circ,
                          const TenantOptions &Options) {
    CHET_CHECK(!Circ.ops().empty(), InvalidArgument, "tenant '", Id,
               "' registered an empty circuit");
    // Key/circuit compatibility: the input layout must be realizable in
    // the backend's slot count. Throws typed errors on mismatch.
    (void)circuitInputLayout(Circ, Options.Policy, Backend.slotCount());

    std::lock_guard<std::mutex> Lock(Mu);
    CHET_CHECK(!Tenants.count(Id), InvalidArgument, "tenant '", Id,
               "' is already registered");
    auto T = std::make_unique<TenantContext>();
    T->Id = Id;
    T->Backend = &Backend;
    T->Circ = &Circ;
    T->Options = Options;
    T->Bucket = TokenBucket(
        Options.Bucket ? *Options.Bucket : Cfg.Bucket,
        Cfg.Seed ^ fnv1aBytes(reinterpret_cast<const uint8_t *>(Id.data()),
                              Id.size()));
    T->Breaker = CircuitBreaker(Cfg.Breaker);
    if (Cfg.UsePlaintextCache)
      T->Cache = std::make_unique<EncodedPlaintextCache<B>>();
    Tenants.emplace(Id, std::move(T));
    return 1;
  }

  /// Replaces a tenant's backend (fresh keys), bumping its key epoch.
  /// Blocks until the tenant's in-flight request (if any) finishes;
  /// queued requests pinned to the old epoch are rejected with StaleKey
  /// at dispatch. Returns the new epoch.
  uint64_t rotateTenantKeys(const std::string &Id, B &NewBackend) {
    std::unique_lock<std::mutex> Lock(Mu);
    TenantContext *T = findTenant(Id);
    CHET_CHECK(T, UnknownTenant, "cannot rotate keys of unregistered '",
               Id, "'");
    LaneFreed.wait(Lock, [&] { return !T->Busy; });
    T->Backend = &NewBackend;
    ++T->KeyEpoch;
    if (Cfg.UsePlaintextCache) // old encodings may assume old parameters
      T->Cache = std::make_unique<EncodedPlaintextCache<B>>();
    return T->KeyEpoch;
  }

  /// Current key epoch of a tenant (what RequestOptions::KeyEpoch == 0
  /// resolves to).
  uint64_t keyEpoch(const std::string &Id) const {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Tenants.find(Id);
    CHET_CHECK(It != Tenants.end(), UnknownTenant, "unregistered tenant '",
               Id, "'");
    return It->second->KeyEpoch;
  }

  /// Submits a request. Admission control runs synchronously (see file
  /// comment); the returned ticket resolves when the request completes,
  /// fails, or is rejected. Never throws for per-request conditions --
  /// every outcome is a structured ServerResponse.
  RequestTicket submit(const std::string &TenantId, CipherTensor<B> Input,
                       const RequestOptions &Options = {}) {
    auto State = std::make_shared<detail::RequestState>();
    RequestTicket Ticket(State);

    std::lock_guard<std::mutex> Lock(Mu);
    uint64_t Id = NextRequestId++;
    uint64_t Tick = AdmissionTicks++;
    State->Response.Id = Id;
    State->Response.Tenant = TenantId;
    ++TotalSubmitted;

    TenantContext *T = findTenant(TenantId);
    if (T)
      ++T->Stats.Submitted;

    if (!T) {
      ++RejectedUnknownTenant;
      rejectNow(*State, ErrorCode::UnknownTenant,
                formatError("tenant '", TenantId, "' is not registered"));
      return Ticket;
    }
    if (Draining) {
      ++T->Stats.RejectedShutdown;
      rejectNow(*State, ErrorCode::ServerShutdown,
                "server is draining; resubmit to a live server "
                "(checkpointed progress is retained)");
      return Ticket;
    }
    if (Options.KeyEpoch != 0 && Options.KeyEpoch != T->KeyEpoch) {
      ++T->Stats.RejectedStaleKey;
      rejectNow(*State, ErrorCode::StaleKey,
                formatError("request pinned to key epoch ",
                            Options.KeyEpoch, " but tenant '", TenantId,
                            "' is at epoch ", T->KeyEpoch,
                            "; re-encrypt under the current keys"));
      return Ticket;
    }
    if (Queue.size() >= Cfg.QueueHighWater) {
      ++T->Stats.RejectedOverload;
      rejectNow(*State, ErrorCode::ServerOverloaded,
                formatError("queue at high-water mark (",
                            Cfg.QueueHighWater,
                            "); shedding newest-first"));
      return Ticket;
    }
    if (T->Bucket.enabled() && !T->Bucket.tryAcquire(Tick)) {
      ++T->Stats.RejectedThrottled;
      rejectNow(*State, ErrorCode::TenantThrottled,
                formatError("tenant '", TenantId,
                            "' exceeded its rate allowance at tick ",
                            Tick));
      return Ticket;
    }
    MemoryGovernor &Gov = MemoryGovernor::instance();
    uint64_t Pred = T->Options.PredictedPeakBytes;
    if (Gov.budgetBytes() > 0 && Pred > Gov.budgetBytes()) {
      ++T->Stats.RejectedMemory;
      rejectNow(*State, ErrorCode::ResourceExhausted,
                formatError("tenant '", TenantId, "' predicts a peak of ",
                            Pred, " bytes, beyond the ",
                            Gov.budgetBytes(),
                            "-byte memory budget; it can never be "
                            "dispatched"));
      return Ticket;
    }
    if (Gov.budgetBytes() > 0 && Gov.underPressure() &&
        Queue.size() >= std::max<size_t>(1, Cfg.QueueHighWater / 2)) {
      ++T->Stats.RejectedMemory;
      Gov.reclaim();
      rejectNow(*State, ErrorCode::ResourceExhausted,
                formatError("memory governor under pressure with ",
                            Queue.size(),
                            " requests queued; shedding newest-first -- "
                            "retry after the backlog drains"));
      return Ticket;
    }

    PendingRequest Req;
    Req.Id = Id;
    Req.Tenant = T;
    Req.Input = std::move(Input);
    Req.KeyEpoch = Options.KeyEpoch ? Options.KeyEpoch : T->KeyEpoch;
    if (Options.TimeBudgetSeconds > 0)
      Req.Expiry = Deadline::afterSeconds(Options.TimeBudgetSeconds);
    Req.State = State;
    ++T->Stats.Accepted;
    Queue.push_back(std::move(Req));
    QueueHighWaterSeen = std::max(QueueHighWaterSeen, Queue.size());
    WorkAvailable.notify_one();
    return Ticket;
  }

  /// Stops dispatching (submissions still admitted into the queue).
  /// Lets tests build a deterministic backlog.
  void pause() {
    std::lock_guard<std::mutex> Lock(Mu);
    Paused = true;
  }

  void resume() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Paused = false;
    }
    WorkAvailable.notify_all();
  }

  /// Blocks until the queue is empty and no lane is executing. Do not
  /// call while paused with a non-empty queue.
  void waitIdle() {
    std::unique_lock<std::mutex> Lock(Mu);
    Idle.wait(Lock, [&] { return Queue.empty() && BusyLanes == 0; });
  }

  /// Graceful drain: stops admission (typed ServerShutdown rejections),
  /// waits for the queue to drain and lanes to finish. With a positive
  /// \p DrainBudgetSeconds, queued-but-unstarted requests remaining when
  /// the budget expires are rejected with structured reports (their
  /// tenants' checkpoint stores keep any prior progress); in-flight
  /// requests always run to completion (bounded by MaxRequestSeconds
  /// when configured). Idempotent; returns the final report.
  ServerReport shutdown(double DrainBudgetSeconds = 0) {
    std::unique_lock<std::mutex> Lock(Mu);
    if (!Joined) {
      Draining = true;
      Paused = false;
      WorkAvailable.notify_all();
      auto Drained = [&] { return Queue.empty() && BusyLanes == 0; };
      if (DrainBudgetSeconds > 0) {
        if (!Idle.wait_for(
                Lock,
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(DrainBudgetSeconds)),
                Drained)) {
          // Budget expired: shed what never started, newest-first.
          while (!Queue.empty()) {
            PendingRequest Req = std::move(Queue.back());
            Queue.pop_back();
            ++DrainRejected;
            ++Req.Tenant->Stats.RejectedShutdown;
            resolveReject(*Req.State, ErrorCode::ServerShutdown,
                          "drain budget expired before this request "
                          "started; checkpointed progress is retained -- "
                          "resubmit to a live server");
          }
          Idle.wait(Lock, [&] { return BusyLanes == 0; });
        }
      } else {
        Idle.wait(Lock, Drained);
      }
      Stopping = true;
      WorkAvailable.notify_all();
      Lock.unlock();
      for (std::thread &W : Workers)
        W.join();
      Lock.lock();
      Joined = true;
    }
    return buildReportLocked();
  }

  /// Snapshot of all counters (callable while serving).
  ServerReport report() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return buildReportLocked();
  }

private:
  struct TenantCounters {
    uint64_t Submitted = 0;
    uint64_t Accepted = 0;
    uint64_t Completed = 0;
    uint64_t Failed = 0;
    uint64_t RejectedOverload = 0;
    uint64_t RejectedThrottled = 0;
    uint64_t RejectedBreaker = 0;
    uint64_t RejectedStaleKey = 0;
    uint64_t RejectedShutdown = 0;
    uint64_t RejectedDeadline = 0;
    uint64_t RejectedMemory = 0;
    uint64_t PeakReservedBytes = 0;
    uint64_t Retries = 0;
    uint64_t Restarts = 0;
    uint64_t CheckpointsTaken = 0;
    uint64_t CheckpointsRestored = 0;
  };

  struct TenantContext {
    std::string Id;
    B *Backend = nullptr;
    const TensorCircuit *Circ = nullptr;
    TenantOptions Options;
    std::unique_ptr<EncodedPlaintextCache<B>> Cache;
    uint64_t KeyEpoch = 1;
    TokenBucket Bucket;
    CircuitBreaker Breaker;
    bool Busy = false; ///< One in-flight request per tenant.
    TenantCounters Stats;
    std::vector<double> Latencies; ///< Completed requests only (capped).

    static constexpr size_t MaxLatencySamples = 8192;
  };

  struct PendingRequest {
    uint64_t Id = 0;
    TenantContext *Tenant = nullptr;
    CipherTensor<B> Input;
    uint64_t KeyEpoch = 0;
    std::optional<Deadline> Expiry;
    Timer Queued; ///< Started at submit.
    std::shared_ptr<detail::RequestState> State;
  };

  TenantContext *findTenant(const std::string &Id) {
    auto It = Tenants.find(Id);
    return It == Tenants.end() ? nullptr : It->second.get();
  }

  /// Fills and publishes a rejection (Mu held; the state's own lock
  /// nests inside Mu everywhere).
  static void resolveReject(detail::RequestState &S, ErrorCode Code,
                            std::string Message) {
    std::lock_guard<std::mutex> Lock(S.Mu);
    S.Response.Status = RequestStatus::Rejected;
    S.Response.Code = Code;
    S.Response.Class = classifyFault(Code);
    S.Response.Message = std::move(Message);
    S.Ready = true;
    S.Cv.notify_all();
  }

  void rejectNow(detail::RequestState &S, ErrorCode Code,
                 std::string Message) {
    ++TotalRejected;
    resolveReject(S, Code, std::move(Message));
  }

  /// True when the tenant's predicted footprint currently fits the
  /// governor's budget (exempt tenants always fit).
  static bool memoryFits(const TenantContext &T) {
    uint64_t Pred = T.Options.PredictedPeakBytes;
    return Pred == 0 || MemoryGovernor::instance().wouldFit(Pred);
  }

  /// Index of the first queue entry whose tenant is free and whose
  /// predicted footprint currently fits, or npos. Later entries of a
  /// blocked tenant are skipped too (per-tenant FIFO), but *other*
  /// tenants' fitting requests pass a memory-blocked head -- memory
  /// waits must not head-of-line-block the whole queue.
  size_t firstDispatchable() const {
    std::vector<const TenantContext *> Blocked;
    for (size_t I = 0; I < Queue.size(); ++I) {
      const TenantContext *T = Queue[I].Tenant;
      if (std::find(Blocked.begin(), Blocked.end(), T) != Blocked.end())
        continue;
      if (!T->Busy && memoryFits(*T))
        return I;
      Blocked.push_back(T);
    }
    return size_t(-1);
  }

  void workerLoop() {
    std::unique_lock<std::mutex> Lock(Mu);
    while (true) {
      WorkAvailable.wait(Lock, [&] {
        return Stopping ||
               (!Paused && firstDispatchable() != size_t(-1));
      });
      if (Stopping)
        return;
      size_t I = firstDispatchable();
      if (I == size_t(-1))
        continue;
      PendingRequest Req = std::move(Queue[I]);
      Queue.erase(Queue.begin() + static_cast<ptrdiff_t>(I));
      TenantContext &T = *Req.Tenant;

      // Dispatch-time gates: none of these occupies a lane.
      if (Req.Expiry && Req.Expiry->expired()) {
        ++TotalRejected;
        ++T.Stats.RejectedDeadline;
        resolveReject(*Req.State, ErrorCode::DeadlineExceeded,
                      "request budget expired while queued");
        notifyIfIdleLocked();
        continue;
      }
      if (Req.KeyEpoch != T.KeyEpoch) {
        ++TotalRejected;
        ++T.Stats.RejectedStaleKey;
        resolveReject(*Req.State, ErrorCode::StaleKey,
                      formatError("keys rotated to epoch ", T.KeyEpoch,
                                  " while the request (epoch ",
                                  Req.KeyEpoch, ") was queued"));
        notifyIfIdleLocked();
        continue;
      }
      CircuitBreaker::Decision Dec = Cfg.Breaker.Enabled
                                         ? T.Breaker.onDispatch()
                                         : CircuitBreaker::Decision::Admit;
      if (Dec == CircuitBreaker::Decision::Reject) {
        ++TotalRejected;
        ++T.Stats.RejectedBreaker;
        resolveReject(*Req.State, ErrorCode::CircuitBreakerOpen,
                      formatError("tenant '", T.Id,
                                  "' breaker is open (",
                                  T.Breaker.trips(),
                                  " trips); cooling down"));
        notifyIfIdleLocked();
        continue;
      }

      uint64_t Reserved = 0;
      if (uint64_t Pred = T.Options.PredictedPeakBytes) {
        if (!MemoryGovernor::instance().tryReserve(Pred)) {
          // Lost a race with a reservation made outside the server
          // lock; requeue at the head and re-evaluate (wouldFit now
          // fails too, so the wait predicate does not spin).
          Queue.push_front(std::move(Req));
          continue;
        }
        Reserved = Pred;
        T.Stats.PeakReservedBytes =
            std::max(T.Stats.PeakReservedBytes, Pred);
      }

      T.Busy = true;
      ++BusyLanes;
      double QueueSeconds = Req.Queued.seconds();
      Lock.unlock();

      ServerResponse R = execute(Req, T);
      R.QueueSeconds = QueueSeconds;
      R.LatencySeconds = Req.Queued.seconds();

      Lock.lock();
      if (Reserved)
        MemoryGovernor::instance().release(Reserved);
      T.Busy = false;
      --BusyLanes;
      bool Ok = R.Status == RequestStatus::Completed;
      if (Cfg.Breaker.Enabled)
        T.Breaker.onOutcome(Ok);
      if (Ok) {
        ++T.Stats.Completed;
        ++TotalCompleted;
        if (T.Latencies.size() < TenantContext::MaxLatencySamples)
          T.Latencies.push_back(R.LatencySeconds);
      } else {
        ++T.Stats.Failed;
        ++TotalFailed;
      }
      T.Stats.Retries += uint64_t(std::max(0, R.Session.NodeRetries));
      T.Stats.Restarts += uint64_t(std::max(0, R.Session.Restarts));
      T.Stats.CheckpointsTaken +=
          uint64_t(std::max(0, R.Session.CheckpointsTaken));
      T.Stats.CheckpointsRestored +=
          uint64_t(std::max(0, R.Session.CheckpointsRestored));
      {
        std::lock_guard<std::mutex> SLock(Req.State->Mu);
        Req.State->Response = std::move(R);
        Req.State->Ready = true;
        Req.State->Cv.notify_all();
      }
      // The freed tenant may unblock a queued sibling on another lane.
      WorkAvailable.notify_all();
      LaneFreed.notify_all();
      notifyIfIdleLocked();
    }
  }

  /// Runs one admitted request. No server locks held; the tenant is
  /// marked busy, so everything reached through \p T is stable.
  ServerResponse execute(PendingRequest &Req, TenantContext &T) {
    ServerResponse R;
    R.Id = Req.Id;
    R.Tenant = T.Id;

    SessionConfig SC;
    SC.Retry = Cfg.Retry;
    SC.Checkpoint =
        T.Options.Store ? Cfg.Checkpoint : CheckpointPolicy::off();
    SC.Store = T.Options.Store;
    SC.IntegrityCheckEveryNodes = Cfg.IntegrityCheckEveryNodes;

    // Nested deadline scopes; min-combining makes the tighter one win.
    std::optional<DeadlineScope> Budget;
    if (Req.Expiry)
      Budget.emplace(*Req.Expiry);
    std::optional<DeadlineScope> Cap;
    if (Cfg.MaxRequestSeconds > 0)
      Cap.emplace(Deadline::afterSeconds(Cfg.MaxRequestSeconds));

    InferenceSession<B> Session(*T.Backend, *T.Circ, SC);
    try {
      CipherTensor<B> Out =
          Session.run(Req.Input, T.Options.Scales, T.Options.Policy,
                      T.Options.FcAlg, T.Cache.get());
      R.Status = RequestStatus::Completed;
      R.OutLayout = Out.L;
      if constexpr (SessionCheckpointable<B>) {
        R.Output.reserve(Out.Cts.size());
        for (const typename B::Ct &C : Out.Cts)
          R.Output.push_back(serialize(C));
      }
    } catch (const ChetError &E) {
      R.Status = RequestStatus::Failed;
      R.Code = E.code();
      R.Class = E.faultClass();
      R.Message = E.what();
    } catch (const std::bad_alloc &) {
      // Contain allocation failure to this lane: free what the process
      // can spare, then fail the request as transient so the client
      // knows a straight resubmit is expected to succeed.
      MemoryGovernor::instance().reclaim();
      R.Status = RequestStatus::Failed;
      R.Code = ErrorCode::ResourceExhausted;
      R.Class = FaultClass::Transient;
      R.Message = "allocation failure escaped the session's retry "
                  "budget; caches and pools were reclaimed -- resubmit";
    } catch (const std::exception &E) {
      R.Status = RequestStatus::Failed;
      R.Code = ErrorCode::InvalidArgument;
      R.Class = FaultClass::Permanent;
      R.Message = E.what();
    }
    R.Session = Session.report();
    return R;
  }

  void notifyIfIdleLocked() {
    if (Queue.empty() && BusyLanes == 0)
      Idle.notify_all();
  }

  ServerReport buildReportLocked() const {
    ServerReport Rep;
    Rep.Lanes = Cfg.Lanes;
    Rep.Submitted = TotalSubmitted;
    Rep.Completed = TotalCompleted;
    Rep.Failed = TotalFailed;
    Rep.Rejected = TotalRejected;
    Rep.RejectedUnknownTenant = RejectedUnknownTenant;
    Rep.DrainRejected = DrainRejected;
    Rep.QueueHighWater = QueueHighWaterSeen;
    Rep.ShutDown = Joined;
    Rep.Pool = LimbPool::instance().stats();
    Rep.Governor = MemoryGovernor::instance().stats();
    for (const auto &[Id, T] : Tenants) {
      TenantReport TR;
      TR.Tenant = Id;
      TR.KeyEpoch = T->KeyEpoch;
      TR.Submitted = T->Stats.Submitted;
      TR.Accepted = T->Stats.Accepted;
      TR.Completed = T->Stats.Completed;
      TR.Failed = T->Stats.Failed;
      TR.RejectedOverload = T->Stats.RejectedOverload;
      TR.RejectedThrottled = T->Stats.RejectedThrottled;
      TR.RejectedBreaker = T->Stats.RejectedBreaker;
      TR.RejectedStaleKey = T->Stats.RejectedStaleKey;
      TR.RejectedShutdown = T->Stats.RejectedShutdown;
      TR.RejectedDeadline = T->Stats.RejectedDeadline;
      TR.RejectedMemory = T->Stats.RejectedMemory;
      TR.PeakReservedBytes = T->Stats.PeakReservedBytes;
      TR.Retries = T->Stats.Retries;
      TR.Restarts = T->Stats.Restarts;
      TR.CheckpointsTaken = T->Stats.CheckpointsTaken;
      TR.CheckpointsRestored = T->Stats.CheckpointsRestored;
      TR.BreakerTrips = T->Breaker.trips();
      TR.BreakerProbes = T->Breaker.probes();
      TR.BreakerRecoveries = T->Breaker.recoveries();
      TR.Breaker = T->Breaker.state();
      TR.P50LatencySeconds = latencyPercentile(T->Latencies, 50.0);
      TR.P99LatencySeconds = latencyPercentile(T->Latencies, 99.0);
      Rep.Accepted += TR.Accepted;
      Rep.Tenants.push_back(std::move(TR));
    }
    return Rep;
  }

  ServerConfig Cfg;

  mutable std::mutex Mu;
  std::condition_variable WorkAvailable;
  std::condition_variable Idle;
  std::condition_variable LaneFreed;

  std::map<std::string, std::unique_ptr<TenantContext>> Tenants;
  std::deque<PendingRequest> Queue;
  std::vector<std::thread> Workers;

  uint64_t NextRequestId = 1;
  uint64_t AdmissionTicks = 0;
  uint64_t TotalSubmitted = 0;
  uint64_t TotalCompleted = 0;
  uint64_t TotalFailed = 0;
  uint64_t TotalRejected = 0;
  uint64_t RejectedUnknownTenant = 0;
  uint64_t DrainRejected = 0;
  size_t QueueHighWaterSeen = 0;
  unsigned BusyLanes = 0;
  bool Paused = false;
  bool Draining = false;
  bool Stopping = false;
  bool Joined = false;
};

} // namespace chet

#endif // CHET_SERVER_SERVER_H
