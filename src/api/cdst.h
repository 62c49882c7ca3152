/// \file api/cdst.h
/// Umbrella header for the cdst session API — the stable public surface.
///
/// Layering (see ARCHITECTURE.md):
///
///   api/     Engine, CdSolver (+SolveStream), Router,         <- this layer
///            Status/StatusOr, RunControl, EventSink
///   route/   per-net oracles, netlists, metrics
///   core/    Algorithm 1 solver, instances, objectives
///   grid/ graph/ geom/ topology/ embed/ timing/ io/ util/     <- substrate
///
/// The api layer owns session state (recycled solver scratch, thread pools,
/// Lagrangean warm-start state), returns structured Status errors instead of
/// letting exceptions escape, and reports through typed EventSink events
/// with RunControl cancellation. An Engine owns the shared ThreadPool +
/// DenseStateBudget and vends sessions wired to both; SolveStream is the
/// bounded-window streaming variant of solve_batch for pipelines that
/// cannot hold all results.

#pragma once

#include "api/cd_solver.h"
#include "api/engine.h"
#include "api/events.h"
#include "api/router.h"
#include "api/run_control.h"
#include "api/solve_stream.h"
#include "api/status.h"
