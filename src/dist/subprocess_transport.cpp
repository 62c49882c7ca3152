#include "dist/subprocess_transport.h"

#if !defined(_WIN32)

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>
#include <vector>

#include "dist/framing.h"
#include "util/fault_injection.h"
#include "util/thread_annotations.h"
#include "util/wire.h"

namespace cdst::dist {
namespace {

/// Writing a frame to a worker that died mid-round raises SIGPIPE, whose
/// default disposition would kill the parent — the opposite of the typed
/// kUnavailable the failure contract promises. Ignore it process-wide,
/// once: EPIPE then surfaces as an ordinary write error. Idempotent and
/// safe even if the host application also ignores SIGPIPE (the common
/// server discipline).
void ignore_sigpipe_once() {
  static const bool done = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)done;
}

void set_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD);
  if (flags >= 0) ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

/// True iff `result` can be the reply to `work`: same round and shard, and
/// the same nets in the same order. Several spans of one shard are in
/// flight at once, so round and shard alone cannot tell a stale reply of a
/// desynchronized worker from the awaited one.
bool answers(const ShardResultMsg& result, const ShardWorkMsg& work) {
  if (result.round != work.round || result.shard != work.shard ||
      result.nets.size() != work.nets.size()) {
    return false;
  }
  for (std::size_t k = 0; k < work.nets.size(); ++k) {
    if (result.nets[k].net != work.nets[k].net) return false;
  }
  return true;
}

}  // namespace

struct SubprocessTransport::Impl {
  /// One pooled worker process. While a dispatch owns it (busy == true)
  /// all fields except `busy` are that dispatch's exclusive property, so
  /// pipe IO and spawn/teardown run outside the pool lock.
  struct Worker {
    pid_t pid{-1};
    int in_fd{-1};   ///< parent -> worker stdin
    int out_fd{-1};  ///< worker stdout -> parent
    bool alive{false};
    bool busy{false};
    /// The process was already SIGKILLed and reaped (kill_workers_for_test)
    /// while the bookkeeping still says alive: destroy must not signal the
    /// stale — possibly recycled — pid again.
    bool reaped{false};
    /// Which setup/snapshot this worker has been streamed (0 = none); the
    /// owning dispatch re-sends whatever lags the transport's epochs.
    std::uint64_t setup_epoch{0};
    std::uint64_t snapshot_epoch{0};
  };

  explicit Impl(SubprocessTransportOptions options_in)
      : options(std::move(options_in)),
        workers(static_cast<std::size_t>(std::max(1, options.workers))) {}

  /// Closes the worker's pipes and reaps its process; the next dispatch
  /// that draws this slot spawns a fresh worker.
  void destroy_worker(Worker& w) {
    if (w.in_fd >= 0) ::close(w.in_fd);
    if (w.out_fd >= 0) ::close(w.out_fd);
    w.in_fd = -1;
    w.out_fd = -1;
    // Guard pid > 0: kill(-1, ...) would signal the whole process group.
    if (w.pid > 0 && !w.reaped) {
      ::kill(w.pid, SIGKILL);
      int status = 0;
      while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
    w.pid = -1;
    w.alive = false;
    w.reaped = false;
  }

  Status spawn_worker(Worker& w) {
    destroy_worker(w);
    int to_child[2];   // parent writes, child stdin
    int from_child[2]; // child stdout, parent reads
    if (::pipe(to_child) != 0) {
      return Status::Unavailable("worker spawn: pipe() failed");
    }
    if (::pipe(from_child) != 0) {
      ::close(to_child[0]);
      ::close(to_child[1]);
      return Status::Unavailable("worker spawn: pipe() failed");
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(to_child[0]);
      ::close(to_child[1]);
      ::close(from_child[0]);
      ::close(from_child[1]);
      return Status::Unavailable("worker spawn: fork() failed");
    }
    if (pid == 0) {
      // Child: frames on stdin/stdout; stderr stays shared for logging.
      ::dup2(to_child[0], STDIN_FILENO);
      ::dup2(from_child[1], STDOUT_FILENO);
      ::close(to_child[0]);
      ::close(to_child[1]);
      ::close(from_child[0]);
      ::close(from_child[1]);
      char* const argv[] = {const_cast<char*>(options.worker_path.c_str()),
                            nullptr};
      ::execv(options.worker_path.c_str(), argv);
      // Exec failed (missing/non-executable binary): the parent observes
      // EOF on the reply pipe and reports kUnavailable.
      ::_exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    set_cloexec(to_child[1]);
    set_cloexec(from_child[0]);
    w.pid = pid;
    w.in_fd = to_child[1];
    w.out_fd = from_child[0];
    w.alive = true;
    w.setup_epoch = 0;
    w.snapshot_epoch = 0;
    return Status::Ok();
  }

  /// The per-worker IO of one dispatch: catch the worker up on setup /
  /// snapshot, send the work, read and decode the reply. Any stream
  /// failure tears the worker down and returns kUnavailable.
  StatusOr<ShardResultMsg> dispatch_on(Worker& w, const ShardWorkMsg& work,
                                       std::uint64_t want_setup,
                                       std::uint64_t want_snapshot) {
    if (!w.alive || w.pid <= 0) {
      if (Status st = spawn_worker(w); !st.ok()) return st;
    }
    if (w.setup_epoch != want_setup) {
      if (Status st = write_frame(w.in_fd, setup_bytes); !st.ok()) {
        destroy_worker(w);
        return Status::Annotate(st, "worker setup send");
      }
      w.setup_epoch = want_setup;
      w.snapshot_epoch = 0;  // a new world invalidates any old snapshot
    }
    if (w.snapshot_epoch != want_snapshot) {
      if (Status st = write_frame(w.in_fd, snapshot_bytes); !st.ok()) {
        destroy_worker(w);
        return Status::Annotate(st, "worker snapshot send");
      }
      w.snapshot_epoch = want_snapshot;
    }
    if (Status st = write_frame(w.in_fd, work.to_bytes()); !st.ok()) {
      destroy_worker(w);
      return Status::Annotate(st, "worker work send");
    }
    StatusOr<std::vector<std::uint8_t>> reply = read_frame(w.out_fd);
    if (!reply.ok()) {
      destroy_worker(w);
      return Status::Annotate(reply.status(), "worker reply");
    }
    const std::uint32_t magic = wire::peek_u32(*reply);
    if (magic == kWorkerErrorMagic) {
      StatusOr<WorkerErrorMsg> err = WorkerErrorMsg::from_bytes(*reply);
      if (!err.ok()) {
        destroy_worker(w);
        return Status::Annotate(err.status(), "worker error reply");
      }
      // A typed worker error leaves the worker itself healthy: only
      // kUnavailable is worth a retry, and none warrant a respawn.
      return Status::Annotate(err->to_status(), "worker");
    }
    StatusOr<ShardResultMsg> result = ShardResultMsg::from_bytes(*reply);
    if (!result.ok()) {
      destroy_worker(w);
      return Status::Annotate(result.status(), "worker result reply");
    }
    if (!answers(*result, work)) {
      destroy_worker(w);
      return Status::Unavailable(
          "worker replied to different work (desynchronized stream)");
    }
    return std::move(*result);
  }

  const SubprocessTransportOptions options;

  Mutex mu_;
  CondVar free_cv_;
  /// Fixed-size pool: never resized after construction, so a dispatch can
  /// hold a Worker& across the unlocked IO section.
  std::vector<Worker> workers CDST_GUARDED_BY(mu_);

  // Round-invariant frame bytes. Written only by configure/begin_round,
  // which the ShardTransport contract keeps disjoint from dispatch, and
  // read concurrently (read-only) by dispatch IO outside the lock — so they
  // are deliberately NOT lock-guarded; the epochs below are the lock-side
  // handshake that tells a dispatch whether its worker has current bytes.
  std::vector<std::uint8_t> setup_bytes;
  std::vector<std::uint8_t> snapshot_bytes;
  std::uint64_t setup_epoch CDST_GUARDED_BY(mu_){0};
  std::uint64_t snapshot_epoch CDST_GUARDED_BY(mu_){0};
  std::int32_t snapshot_round CDST_GUARDED_BY(mu_){-1};
};

SubprocessTransport::SubprocessTransport(SubprocessTransportOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {
  ignore_sigpipe_once();
}

SubprocessTransport::~SubprocessTransport() {
  MutexLock lock(impl_->mu_);
  for (Impl::Worker& w : impl_->workers) impl_->destroy_worker(w);
}

Status SubprocessTransport::configure(const WorkerSetupMsg& setup) {
  std::vector<std::uint8_t> bytes = setup.to_bytes();
  // Fail fast on a setup the workers would reject: the round-trip parse
  // runs the same validation worker_main does.
  StatusOr<WorkerSetupMsg> parsed = WorkerSetupMsg::from_bytes(bytes);
  if (!parsed.ok()) {
    return Status::Annotate(parsed.status(), "subprocess configure");
  }
  MutexLock lock(impl_->mu_);
  impl_->setup_bytes = std::move(bytes);
  ++impl_->setup_epoch;
  impl_->snapshot_round = -1;
  return Status::Ok();
}

Status SubprocessTransport::begin_round(const PriceSnapshotMsg& snapshot) {
  MutexLock lock(impl_->mu_);
  if (impl_->setup_epoch == 0) {
    return Status::FailedPrecondition(
        "subprocess begin_round: transport not configured");
  }
  impl_->snapshot_bytes = snapshot.to_bytes();
  ++impl_->snapshot_epoch;
  impl_->snapshot_round = snapshot.round;
  return Status::Ok();
}

StatusOr<ShardResultMsg> SubprocessTransport::dispatch(
    const ShardWorkMsg& work) {
  try {
    // See InProcessTransport::dispatch: the shared transport fault site.
    CDST_FAULT_POINT("dist.transport");
  } catch (const InjectedFault& e) {
    return Status::Unavailable(e.what());
  }
  Impl::Worker* w = nullptr;
  std::uint64_t want_setup = 0;
  std::uint64_t want_snapshot = 0;
  {
    MutexLock lock(impl_->mu_);
    if (impl_->setup_epoch == 0 || impl_->snapshot_round != work.round) {
      return Status::FailedPrecondition(
          "subprocess dispatch: transport not configured for this round");
    }
    for (;;) {
      for (Impl::Worker& cand : impl_->workers) {
        if (!cand.busy) {
          w = &cand;
          break;
        }
      }
      if (w != nullptr) break;
      impl_->free_cv_.wait(impl_->mu_);
    }
    w->busy = true;
    want_setup = impl_->setup_epoch;
    want_snapshot = impl_->snapshot_epoch;
  }
  // IO outside the lock: the busy flag gives this dispatch exclusive
  // ownership of the worker, so concurrent dispatches drive other workers.
  StatusOr<ShardResultMsg> result =
      impl_->dispatch_on(*w, work, want_setup, want_snapshot);
  {
    MutexLock lock(impl_->mu_);
    w->busy = false;
    impl_->free_cv_.notify_one();
  }
  return result;
}

void SubprocessTransport::kill_workers_for_test() {
  MutexLock lock(impl_->mu_);
  // Wait out in-flight dispatches first: their workers are owned outside
  // the lock, and racing a SIGKILL against a spawn could signal a stale or
  // recycled pid.
  for (;;) {
    bool any_busy = false;
    for (const Impl::Worker& w : impl_->workers) any_busy |= w.busy;
    if (!any_busy) break;
    impl_->free_cv_.wait(impl_->mu_);
  }
  for (Impl::Worker& w : impl_->workers) {
    if (w.pid <= 0 || w.reaped) continue;
    ::kill(w.pid, SIGKILL);
    int status = 0;
    while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
    }
    // Deliberately keep `alive`, the pid and the pipes as they were: the
    // next dispatch must DISCOVER the death (EPIPE/EOF -> kUnavailable) the
    // way production would, not silently respawn past it. `reaped` stops
    // the eventual destroy from signaling the stale pid again.
    w.reaped = true;
  }
}

}  // namespace cdst::dist

#else  // _WIN32

namespace cdst::dist {

struct SubprocessTransport::Impl {
  SubprocessTransportOptions options;
};

SubprocessTransport::SubprocessTransport(SubprocessTransportOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

SubprocessTransport::~SubprocessTransport() = default;

Status SubprocessTransport::configure(const WorkerSetupMsg&) {
  return Status::FailedPrecondition(
      "SubprocessTransport is not available on this platform");
}

Status SubprocessTransport::begin_round(const PriceSnapshotMsg&) {
  return Status::FailedPrecondition(
      "SubprocessTransport is not available on this platform");
}

StatusOr<ShardResultMsg> SubprocessTransport::dispatch(const ShardWorkMsg&) {
  return Status::FailedPrecondition(
      "SubprocessTransport is not available on this platform");
}

void SubprocessTransport::kill_workers_for_test() {}

}  // namespace cdst::dist

#endif  // _WIN32
