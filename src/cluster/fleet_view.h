// Structure-of-arrays mirror of the placement/accounting hot state
// (DESIGN.md §12). The object graph (Server -> Vm -> GuestOs) stays the
// source of truth; FleetView keeps flat parallel arrays of each server's
// free / deflatable / preemptible / nominal resource components plus a
// candidate-eligibility bit, so the placement scans can run as branch-light
// contiguous loops instead of pointer-chasing through per-server caches.
//
// Coherence protocol: FleetView installs itself as every server's
// ServerObserver, riding the same AllocationListener dirty-flag chain that
// invalidates the per-server accounting caches (GuestOs -> Vm -> Server).
// Any mutation that dirties a server's cache also marks that server's row
// here; Refresh() then re-reads the dirty rows from the object graph in
// ascending row order. Because each row is refreshed from the very accessors
// the object-graph scan would have called (Free/Deflatable/Preemptible/
// NominalDemand), the mirrored values are bit-identical to the object path,
// and every scan outcome (feasibility, fitness, tie-breaks) is too.
//
// Block-max index: for every block of kBlockRows consecutive rows and every
// AvailabilityMode, the view keeps the componentwise maximum of the rows'
// availabilities, computed with the same adds as the placement scan. A scan
// skips a block whose maximum cannot hold the demand; no row in it could.
// Refresh() only records which rows of a block changed, and BlockMax()
// brings the block's maximum up to date when a scan first reads it: by
// folding in the changed rows, or by refolding the whole block when a row
// that held a maximum changed.
//
// Snapshots never serialize a FleetView: it is derived state, rebuilt from
// the restored object graph (all rows start dirty), so the snapshot format
// stays independent of this layout.
#ifndef SRC_CLUSTER_FLEET_VIEW_H_
#define SRC_CLUSTER_FLEET_VIEW_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/hypervisor/server.h"
#include "src/resources/resource_vector.h"

namespace defl {

// What counts as a server's availability for a given arrival:
//   kFreeOnly            -- untouched resources only (no reclamation),
//   kFreePlusDeflatable  -- free + what deflation can reclaim (low-priority
//                           arrivals under deflation-based management),
//   kFreePlusPreemptible -- free + everything low-priority VMs hold (high-
//                           priority arrivals, which may displace them).
enum class AvailabilityMode { kFreeOnly, kFreePlusDeflatable, kFreePlusPreemptible };
inline constexpr int kNumAvailabilityModes = 3;

// One mirrored row materialized back into vectors, for tests and checks.
struct FleetEntry {
  ResourceVector free;
  ResourceVector deflatable;
  ResourceVector preemptible;
  ResourceVector nominal;
  bool eligible = false;
};

class FleetView : public ServerObserver {
 public:
  // Rows per block of the block-max index.
  static constexpr size_t kBlockRows = 64;

  FleetView() = default;
  ~FleetView() override;

  // Self-registers as each server's observer; non-copyable, non-movable.
  FleetView(const FleetView&) = delete;
  FleetView& operator=(const FleetView&) = delete;

  // Binds to the server list and installs this view as every server's
  // change observer. Requires dense ids (servers[i]->id() == i): the id IS
  // the row index. Server addresses must stay stable for the lifetime of
  // the binding (they do: the list holds unique_ptrs). All rows start
  // dirty and eligible.
  void Bind(const std::vector<std::unique_ptr<Server>>& servers);

  size_t size() const { return count_; }
  bool bound() const { return servers_ != nullptr; }

  // ServerObserver: called on every allocation-affecting mutation of
  // server `id`; marks the row stale.
  void OnServerAllocationChanged(ServerId id) override;

  void MarkDirty(size_t row);
  bool HasDirty() const { return !dirty_rows_.empty(); }

  // Candidate eligibility (healthy servers accept placements). Maintained
  // by the cluster layer on health transitions, not by the observer chain.
  void SetEligible(size_t row, bool eligible) {
    eligible_[row] = eligible ? 1 : 0;
  }
  bool eligible(size_t row) const { return eligible_[row] != 0; }

  // Re-reads every dirty row from its Server in ascending row order, records
  // each as changed in its block, then clears the dirty set. O(1) when
  // nothing is dirty. Must run before any scan consumes the columns or
  // block maxima.
  void Refresh();

  size_t num_blocks() const { return block_changed_[0].size(); }

  // Componentwise maximum, over every row of `block` (eligible or not), of
  // the availability under `mode`: kNumResources doubles in ResourceKind
  // order. Brings the maximum up to date first when a Refresh() changed
  // one of the block's rows since the last read. A NaN component keeps the
  // maximum NaN, so no epsilon test can rule the block out on it.
  const double* BlockMax(size_t block, AvailabilityMode mode) {
    const auto m = static_cast<size_t>(mode);
    if (block_changed_[m][block] != 0) {
      UpdateBlockMax(block, mode);
    }
    return &block_max_[m][block * kNumResources];
  }

  // Column base pointers for the flat placement scans (valid after Bind;
  // read-only, coherent after Refresh()).
  const double* free_col(ResourceKind k) const {
    return free_[static_cast<size_t>(k)].data();
  }
  const double* deflatable_col(ResourceKind k) const {
    return deflatable_[static_cast<size_t>(k)].data();
  }
  const double* preemptible_col(ResourceKind k) const {
    return preemptible_[static_cast<size_t>(k)].data();
  }
  // The column added to free_col(k) to form a row's availability under
  // `mode`: deflatable_col(k), preemptible_col(k), or null for kFreeOnly.
  const double* extra_col(ResourceKind k, AvailabilityMode mode) const {
    switch (mode) {
      case AvailabilityMode::kFreeOnly:
        return nullptr;
      case AvailabilityMode::kFreePlusDeflatable:
        return deflatable_col(k);
      case AvailabilityMode::kFreePlusPreemptible:
        return preemptible_col(k);
    }
    return nullptr;
  }

  // Row materialized back into vectors (no refresh; callers wanting
  // coherent values call Refresh() first).
  FleetEntry Entry(size_t row) const;

  // True when row's mirrored values are exactly (bitwise) equal to the
  // server's accessors right now. Property tests call this after Refresh().
  bool RowConsistent(size_t row) const;

  // True when every maximum of `block` that no Refresh() has changed since
  // its last read equals a recomputation from the rows' entries, and the
  // row recorded as holding it does. (A changed one is brought up to date
  // before any scan reads it.) Property tests call this after Refresh().
  bool BlockMaxConsistent(size_t block) const;

 private:
  void RefreshRow(size_t row);
  void UpdateBlockMax(size_t block, AvailabilityMode mode);

  const std::vector<std::unique_ptr<Server>>* servers_ = nullptr;
  size_t count_ = 0;

  // Column-major: one contiguous array per (aggregate, resource kind).
  std::array<std::vector<double>, kNumResources> free_;
  std::array<std::vector<double>, kNumResources> deflatable_;
  std::array<std::vector<double>, kNumResources> preemptible_;
  std::array<std::vector<double>, kNumResources> nominal_;
  std::vector<uint8_t> eligible_;

  // Dirty tracking: a bitmap for O(1) dedup plus an insertion-order list of
  // dirty rows. Refresh() sorts the list (or sweeps the bitmap when most
  // rows are dirty) so rows always refresh in ascending canonical order.
  std::vector<uint8_t> dirty_;
  std::vector<uint32_t> dirty_rows_;

  // Block-max index, per mode: kNumResources maxima per block, the offset
  // within the block of a row holding each one, and per block a bitmask of
  // the rows Refresh() changed since that mode's maxima were last updated.
  std::array<std::vector<double>, kNumAvailabilityModes> block_max_;
  std::array<std::vector<uint8_t>, kNumAvailabilityModes> block_argmax_;
  std::array<std::vector<uint64_t>, kNumAvailabilityModes> block_changed_;
};

}  // namespace defl

#endif  // SRC_CLUSTER_FLEET_VIEW_H_
