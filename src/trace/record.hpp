// The syscall-trace record model.
//
// FlexFetch profiles programs by intercepting file-related system calls with
// a modified strace (paper Section 3.2). Each record carries: pid, file
// descriptor, inode number, offset, size, type, timestamp, and duration —
// exactly the fields the paper's collector records.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/units.hpp"

namespace flexfetch::trace {

using Pid = std::uint32_t;
using ProcessGroup = std::uint32_t;
using Inode = std::uint64_t;
using Fd = std::int32_t;

/// Dense file id: a file's position among the inodes of a compiled program
/// set, numbered 0..F-1 in ascending inode order (see trace/compiled.hpp).
/// Per-run structures index flat arrays by it instead of hashing inodes.
enum class FileId : std::uint32_t {};

constexpr std::size_t index_of(FileId f) { return static_cast<std::size_t>(f); }

enum class OpType : std::uint8_t {
  kOpen,
  kClose,
  kRead,
  kWrite,
  kSeek,
};

const char* to_string(OpType op);

/// One intercepted file-related system call.
struct SyscallRecord {
  Pid pid = 0;
  /// Linux process group: used to associate multi-process programs (e.g.
  /// `make` spawning many `gcc`s) with one profile (Section 2.1).
  ProcessGroup pgid = 0;
  Fd fd = -1;
  Inode inode = 0;
  Bytes offset = Bytes{0};
  Bytes size = Bytes{0};
  OpType op = OpType::kRead;
  /// Wall-clock start of the call, seconds from trace origin.
  Seconds timestamp = Seconds{0.0};
  /// How long the call took in the traced run. Only used to derive think
  /// times; replay recomputes service times from the simulated devices.
  Seconds duration = Seconds{0.0};

  bool is_data_transfer() const {
    return op == OpType::kRead || op == OpType::kWrite;
  }

  Bytes end_offset() const { return offset + size; }

  bool operator==(const SyscallRecord&) const = default;
};

std::string to_string(const SyscallRecord& r);

}  // namespace flexfetch::trace
