/// \file dist/worker_main.cpp
/// The cdst_shard_worker binary: one pooled worker of SubprocessTransport.
///
/// Speaks length-prefixed frames (dist/framing.h) on stdin/stdout and
/// branches on each frame's message magic:
///
///   WorkerSetupMsg    -> (re)materialize the ShardContext. One-way: a bad
///                        setup is remembered and reported as a typed
///                        WorkerErrorMsg on the next work frame, keeping
///                        the protocol strictly request/reply.
///   PriceSnapshotMsg  -> load the round's committed usage into the context
///                        (load_snapshot). One-way: a bad or missing
///                        snapshot leaves no round loaded, which the next
///                        work frame reports as kFailedPrecondition.
///   ShardWorkMsg      -> execute the shard (dist/shard_executor.h) and
///                        reply with a ShardResultMsg or a WorkerErrorMsg.
///
/// Clean EOF on stdin is the shutdown signal (the transport closed the
/// pipe); any protocol corruption exits nonzero, which the parent observes
/// as EOF on the reply pipe and maps to kUnavailable. Logging goes to
/// stderr — stdout is the frame stream and must stay byte-clean.

#include <unistd.h>

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "api/status.h"
#include "dist/framing.h"
#include "dist/shard_executor.h"
#include "dist/wire.h"
#include "util/logging.h"
#include "util/wire.h"

namespace cdst::dist {
namespace {

int worker_loop() {
  std::unique_ptr<ShardContext> ctx;
  Status state = Status::FailedPrecondition("worker: no setup received");

  for (;;) {
    StatusOr<std::vector<std::uint8_t>> frame = read_frame(STDIN_FILENO);
    if (!frame.ok()) {
      // EOF or a vanished parent: a normal end of service either way.
      return 0;
    }
    const std::span<const std::uint8_t> bytes(*frame);
    const std::uint32_t magic = wire::peek_u32(bytes);

    if (magic == kWorkerSetupMagic) {
      StatusOr<WorkerSetupMsg> setup = WorkerSetupMsg::from_bytes(bytes);
      if (!setup.ok()) {
        ctx.reset();
        state = setup.status();
        continue;
      }
      StatusOr<std::unique_ptr<ShardContext>> built =
          make_shard_context(*setup);
      if (!built.ok()) {
        ctx.reset();
        state = built.status();
        continue;
      }
      ctx = std::move(*built);  // a new world holds no round yet
      state = Status::Ok();
      continue;
    }

    if (magic == kPriceSnapshotMagic) {
      if (ctx == nullptr) continue;  // the work frame reports `state`
      StatusOr<PriceSnapshotMsg> msg = PriceSnapshotMsg::from_bytes(bytes);
      if (!msg.ok() || !load_snapshot(*ctx, *msg).ok()) {
        // A corrupt frame unloads the previous round too: work for it
        // must not run against stale usage.
        ctx->round.reset();
      }
      continue;
    }

    if (magic == kShardWorkMagic) {
      Status failure = state;
      StatusOr<ShardResultMsg> result = Status::Internal("unset");
      if (failure.ok()) {
        StatusOr<ShardWorkMsg> work = ShardWorkMsg::from_bytes(bytes);
        if (!work.ok()) {
          failure = work.status();
        } else {
          result = execute_shard(*ctx, *work);
          if (!result.ok()) failure = result.status();
        }
      }
      const std::vector<std::uint8_t> reply =
          failure.ok() ? result->to_bytes()
                       : WorkerErrorMsg::from_status(failure).to_bytes();
      if (Status st = write_frame(STDOUT_FILENO, reply); !st.ok()) {
        CDST_LOG(kWarn) << "shard worker: reply write failed: "
                           << st.to_string();
        return 1;
      }
      continue;
    }

    CDST_LOG(kWarn) << "shard worker: unknown frame magic, exiting";
    return 1;
  }
}

}  // namespace
}  // namespace cdst::dist

int main() { return cdst::dist::worker_loop(); }
