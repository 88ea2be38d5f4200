// Binary serialization for tensors and parameter sets (checkpoints).
//
// One container format, STK2: a magic/version header, an optional metadata
// section (training-resume state: epoch, optimizer step, stream counters,
// config fingerprint), a record count, then (name, shape, float32 payload)
// records in little-endian byte order, each followed by its CRC-32, and a
// whole-file CRC-32 trailer.  Any truncation or bit flip is rejected with a
// typed InvalidArgument; the loader checks the whole-file CRC before it
// trusts any length field, and still bounds every length by the bytes
// present.
//
// All writers are crash-safe: the container is built in memory and published
// via write-to-temp + fsync + atomic rename (atomic_write_file), so a kill
// at any instant leaves either the previous file or the new one at the final
// path — never a partial mix.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace spiketune {

/// One named tensor in a checkpoint.
struct NamedTensor {
  std::string name;
  Tensor value;
};

/// Optional resume metadata carried by a checkpoint.  `present` is false for
/// plain weight snapshots.
struct CheckpointMeta {
  bool present = false;
  std::int64_t epoch = 0;             // next epoch to run on resume
  std::int64_t opt_step = 0;          // optimizer step count (Adam t)
  std::uint64_t encode_stream = 0;    // Trainer's encoder stream counter
  std::uint64_t eval_calls = 0;       // Trainer's evaluate() counter
  std::uint64_t loader_seed = 0;      // DataLoader shuffle seed
  std::uint64_t config_fingerprint = 0;  // hash of the training setup
  double lr_scale = 1.0;              // cumulative rollback LR cut
  std::map<std::string, std::string> extra;  // forward-compatible key/values
};

/// A fully parsed checkpoint: records and metadata.
struct Checkpoint {
  std::vector<NamedTensor> records;
  CheckpointMeta meta;
};

/// Writes records to `path` as STK2 (no metadata) via an atomic
/// temp+fsync+rename.  Throws spiketune::Error on I/O failure.
void save_checkpoint(const std::string& path,
                     const std::vector<NamedTensor>& records);

/// As above, with a metadata section (meta.present is forced true on disk).
void save_checkpoint(const std::string& path,
                     const std::vector<NamedTensor>& records,
                     const CheckpointMeta& meta);

/// Reads a checkpoint written by save_checkpoint.  Throws InvalidArgument on
/// malformed files: bad magic, a version other than 2, truncation, absurd
/// sizes, or any CRC mismatch.
std::vector<NamedTensor> load_checkpoint(const std::string& path);

/// As load_checkpoint, but also returns the metadata.
Checkpoint load_checkpoint_full(const std::string& path);

/// Atomically publishes `data` at `path`: writes `path + ".tmp"`, fsyncs,
/// then rename(2)s over the destination (and best-effort fsyncs the parent
/// directory).  On failure the temp file is removed and the previous file at
/// `path`, if any, is left untouched.
void atomic_write_file(const std::string& path, const std::string& data);

namespace testing {
/// Test-only fault injection: when set, invoked after the temp file is
/// written and fsynced but *before* the rename that publishes it.  Throwing
/// from the hook simulates a crash mid-checkpoint; atomic_write_file then
/// cleans up the temp file and propagates, leaving the previous checkpoint
/// intact.  Not thread-safe; tests must reset it to nullptr when done.
extern std::function<void()> checkpoint_pre_rename_hook;
}  // namespace testing

}  // namespace spiketune
