#include "dist/transport.h"

#include <utility>

#include "dist/shard_executor.h"
#include "util/fault_injection.h"

namespace cdst::dist {

struct InProcessTransport::Impl {
  std::unique_ptr<ShardContext> ctx;
};

InProcessTransport::InProcessTransport() : impl_(std::make_unique<Impl>()) {}
InProcessTransport::~InProcessTransport() = default;

Status InProcessTransport::configure(const WorkerSetupMsg& setup) {
  // Full wire round-trip even in-process: the loopback exists to prove the
  // bytes carry everything, so the context may only ever be built from a
  // re-parsed message.
  StatusOr<WorkerSetupMsg> parsed = WorkerSetupMsg::from_bytes(
      setup.to_bytes());
  if (!parsed.ok()) {
    return Status::Annotate(parsed.status(), "in-process configure");
  }
  StatusOr<std::unique_ptr<ShardContext>> ctx = make_shard_context(*parsed);
  if (!ctx.ok()) {
    return Status::Annotate(ctx.status(), "in-process configure");
  }
  impl_->ctx = std::move(*ctx);
  return Status::Ok();
}

Status InProcessTransport::begin_round(const PriceSnapshotMsg& snapshot) {
  if (impl_->ctx == nullptr) {
    return Status::FailedPrecondition(
        "in-process begin_round: transport not configured");
  }
  StatusOr<PriceSnapshotMsg> parsed =
      PriceSnapshotMsg::from_bytes(snapshot.to_bytes());
  if (!parsed.ok()) {
    return Status::Annotate(parsed.status(), "in-process begin_round");
  }
  return Status::Annotate(load_snapshot(*impl_->ctx, *parsed),
                          "in-process begin_round");
}

StatusOr<ShardResultMsg> InProcessTransport::dispatch(
    const ShardWorkMsg& work) {
  if (impl_->ctx == nullptr) {
    return Status::FailedPrecondition(
        "in-process dispatch: transport not configured");
  }
  try {
    // The transport's own failure point: models a delivery fault (as
    // opposed to router.unit, which models a unit of the slice faulting).
    // kUnavailable = retryable, per the transport contract.
    CDST_FAULT_POINT("dist.transport");
  } catch (const InjectedFault& e) {
    return Status::Unavailable(e.what());
  }
  StatusOr<ShardWorkMsg> parsed = ShardWorkMsg::from_bytes(work.to_bytes());
  if (!parsed.ok()) {
    return Status::Annotate(parsed.status(), "in-process dispatch");
  }
  StatusOr<ShardResultMsg> result = execute_shard(*impl_->ctx, *parsed);
  if (!result.ok()) {
    return Status::Annotate(result.status(), "in-process dispatch");
  }
  StatusOr<ShardResultMsg> reparsed =
      ShardResultMsg::from_bytes(result->to_bytes());
  if (!reparsed.ok()) {
    return Status::Annotate(reparsed.status(), "in-process dispatch");
  }
  return std::move(*reparsed);
}

}  // namespace cdst::dist
