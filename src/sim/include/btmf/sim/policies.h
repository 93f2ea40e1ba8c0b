// Factories for the scheme policies plugged into the event kernel.
//
// Each policy is self-contained: construct one, hand it to EventKernel
// together with a SimConfig, and call run(). sim::run_simulation picks
// the factory by scheme and runs it through ShardedKernel.
#pragma once

#include <memory>

#include "btmf/sim/event_kernel.h"

namespace btmf::sim {

/// Multi-Torrent Concurrent Downloading (paper Sec. 3.2): one virtual
/// peer per requested file, each with 1/i of the user's bandwidth.
std::unique_ptr<SchemePolicy> make_mtcd_policy();

/// Multi-Torrent Sequential Downloading (Sec. 3.3): one file at a time at
/// full bandwidth, seeding each for Exp(gamma) before the next.
std::unique_ptr<SchemePolicy> make_mtsd_policy();

/// Multi-File Concurrent Downloading (Sec. 3.4) with joint completion:
/// one merged content buffer; all files finish together.
std::unique_ptr<SchemePolicy> make_mfcd_policy();

/// Combined Multi-File Sequential Downloading (Sec. 3.5) with partial
/// seeds, cheaters, the Adapt rho controller and the seed-pool modes.
std::unique_ptr<SchemePolicy> make_cmfsd_policy();

}  // namespace btmf::sim
