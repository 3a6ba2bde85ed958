// Env bundles the simulated storage stack: page store, multi-queue I/O
// engine, buffer cache. Every index component does its I/O through an Env;
// the engine prices each page access on one device queue's virtual clock
// (io/io_engine.h), so concurrent maintenance bound to different queues
// overlaps in simulated time on multi-queue device profiles.
#pragma once

#include <memory>
#include <optional>

#include "env/buffer_cache.h"
#include "env/disk_model.h"
#include "env/page_store.h"
#include "fault/fault_injector.h"
#include "io/io_engine.h"

namespace auxlsm {

struct EnvOptions {
  size_t page_size = 4096;
  size_t cache_pages = 4096;         ///< 16 MiB with 4 KiB pages
  /// Lock stripes of the buffer cache. 0 = one per hardware thread (capped
  /// by the cache size), so a parallel maintenance engine doesn't serialize
  /// page faults behind one mutex. 1 = the single global LRU, bit-for-bit
  /// the legacy behavior — deterministic-I/O benches and tests pin this.
  size_t cache_shards = 0;
  uint32_t scan_readahead_pages = 32;///< read-ahead used by range scans
  /// Legacy single-head cost parameters; the device defaults to one queue of
  /// this profile, which reproduces the old DiskModel charging bit-for-bit.
  DiskProfile disk_profile = DiskProfile::Hdd();
  /// Number of independent device queues for disk_profile (1 = legacy).
  uint32_t io_queues = 1;
  /// Full device profile; when set it wins over disk_profile/io_queues
  /// (e.g. DeviceProfile::Nvme(4) for the multi-queue benches).
  std::optional<DeviceProfile> device_profile;

  /// Failpoint registry (fault/fault_injector.h) threaded through the
  /// storage seams: page append/read, file delete, cache miss fills, and
  /// the I/O engine's submissions. Null (default) disables injection — a
  /// single branch per seam, no behavior or modeled-time change. The
  /// injector must outlive the Env.
  FaultInjector* fault_injector = nullptr;

  /// Metrics registry (obs/metrics.h) attached to the storage I/O engine
  /// under the "io.storage" metric prefix. Null (default) disables metric
  /// recording with the same armed-but-quiet contract as the fault
  /// injector: attaching a registry never changes modeled time or DIGEST
  /// output. The registry must outlive the Env.
  obs::MetricsRegistry* metrics = nullptr;

  /// The device the engine is built from.
  DeviceProfile ResolvedDevice() const {
    return device_profile.has_value()
               ? *device_profile
               : DeviceProfile::FromDisk(disk_profile, io_queues);
  }
};

class Env {
 public:
  explicit Env(EnvOptions options = EnvOptions());

  PageStore* store() { return &store_; }
  IoEngine* io() { return &io_; }
  BufferCache* cache() { return &cache_; }

  size_t page_size() const { return store_.page_size(); }
  uint32_t scan_readahead_pages() const { return options_.scan_readahead_pages; }

  IoStats stats() const { return io_.stats(); }

  /// Creates a new append-only page file.
  uint32_t CreateFile() { return store_.CreateFile(); }

  /// Appends a page, charging a sequential write to the calling thread's
  /// device queue, and admits it to the buffer cache (write-through): flush,
  /// merge and concurrent builds all append here, so their components start
  /// warm instead of being re-faulted by the next reads. Admission charges
  /// no read. A failed append admits nothing. `page_no` may be null.
  Status AppendPage(uint32_t file_id, std::string page, uint32_t* page_no) {
    if (options_.fault_injector != nullptr) {
      AUXLSM_RETURN_NOT_OK(
          options_.fault_injector->Hit(failpoints::kEnvAppendPage, &io_));
    }
    uint32_t appended = 0;
    PageData data;
    AUXLSM_RETURN_NOT_OK(
        store_.AppendPage(file_id, std::move(page), &appended, &data));
    io_.ChargeWrite(1);
    cache_.Admit(file_id, appended, std::move(data));
    if (page_no != nullptr) *page_no = appended;
    return Status::OK();
  }

  /// Reads a page through the cache.
  Status ReadPage(uint32_t file_id, uint32_t page_no, PageData* out,
                  uint32_t readahead_pages = 0) {
    if (options_.fault_injector != nullptr) {
      AUXLSM_RETURN_NOT_OK(
          options_.fault_injector->Hit(failpoints::kEnvReadPage, &io_));
    }
    return cache_.Read(file_id, page_no, out, readahead_pages);
  }

  /// Deletes a file, evicts its cached pages, and sweeps every device
  /// queue's head position off it.
  Status DeleteFile(uint32_t file_id);

  const EnvOptions& options() const { return options_; }

 private:
  EnvOptions options_;
  PageStore store_;
  IoEngine io_;
  BufferCache cache_;
};

}  // namespace auxlsm
