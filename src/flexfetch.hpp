// Umbrella header: the FlexFetch public API in one include.
//
//   #include "flexfetch.hpp"
//
// pulls in the trace model and importers, the device and OS substrates,
// the simulator, the FlexFetch policy and its baselines, and the synthetic
// workload generators. Individual headers remain includable for faster
// builds.
#pragma once

#include "common/format.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

#include "trace/builder.hpp"
#include "trace/strace_import.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"

#include "device/adaptive_timeout.hpp"
#include "device/disk.hpp"
#include "device/wnic.hpp"

#include "os/buffer_cache.hpp"
#include "os/file_layout.hpp"
#include "os/io_scheduler.hpp"
#include "os/readahead.hpp"
#include "os/vfs.hpp"
#include "os/writeback.hpp"

#include "hoard/hoard_set.hpp"
#include "hoard/sync.hpp"

#include "sim/simulator.hpp"

#include "core/flexfetch.hpp"
#include "core/profile_store.hpp"

#include "policies/factory.hpp"

#include "workloads/scenarios.hpp"
