// Umbrella header — the public API of the PB-SpGEMM library.
//
//   #include <pbs/pbs.hpp>
//
//   auto a   = pbs::mtx::coo_to_csr(pbs::mtx::generate_er(1 << 16, 1 << 16, 8, /*seed=*/1));
//   auto p   = pbs::SpGemmProblem::square(a);
//   auto c   = pbs::pb::pb_spgemm(p.a_csc, p.b_csr);     // with telemetry
//   auto c2  = pbs::algorithm("hash").fn(p);             // any baseline
//
//   // Masked: pb and the spa/heap/hash kernels fuse an output mask
//   auto m   = pbs::hash_spgemm_semiring<pbs::MinPlus>(p, {&a, false});
//
//   // Repeated traffic: analyze + select once, execute many
//   pbs::SpGemmExecutor exec;               // fingerprint-keyed plan cache
//   pbs::SpGemmOp op;                       // algo = "auto" (roofline-guided)
//   for (...) auto c3 = exec.run(p, op);    // no re-analysis, no re-allocation
//   // ...thread-safe and workspace-pooled: many structures, ops, threads
//
//   // Serving daemon: pbs_serve over a Unix socket (serve/server.hpp),
//   // or embed the pieces — wire protocol, shard router, registry:
//   pbs::serve::Client cli("/tmp/pbs_serve.sock");
//   auto h  = cli.upload(a);                // ship A once
//   auto c4 = cli.square(h);                // iterate by handle
//
// See README.md for the architecture overview and examples/ for complete
// programs.
#pragma once

#include "common/cache_info.hpp"
#include "common/parallel.hpp"
#include "common/run_stats.hpp"
#include "common/stream.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "matrix/convert.hpp"
#include "matrix/coo.hpp"
#include "matrix/csc.hpp"
#include "matrix/csr.hpp"
#include "matrix/dcsc.hpp"
#include "matrix/generate.hpp"
#include "matrix/matrix_market.hpp"
#include "matrix/mstats.hpp"
#include "matrix/ops.hpp"
#include "matrix/surrogates.hpp"
#include "model/roofline.hpp"
#include "model/selection.hpp"
#include "pb/partitioned.hpp"
#include "pb/pb_spgemm.hpp"
#include "pb/plan.hpp"
#include "pb/workspace_pool.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/shard.hpp"
#include "spgemm/epilogue.hpp"
#include "spgemm/executor.hpp"
#include "spgemm/masked.hpp"
#include "spgemm/op.hpp"
#include "spgemm/registry.hpp"
#include "spgemm/semiring.hpp"
#include "spgemm/spgemm.hpp"
